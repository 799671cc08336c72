package sched

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/obs"
)

// SpillStore is a dsnaudit.ProverStore that keeps at most `limit` hydrated
// provers resident and pages the rest to disk, bounding a provider node's
// audit-state memory by its hydration window instead of its engagement
// count. Per-engagement audit state (the encoded file plus authenticators)
// dominates a node's footprint — at a million engagements it is gigabytes —
// while the working set at any tick is only the engagements currently
// proving; everything else can live in checksummed spill records
// (core.MarshalAuditState) and rehydrate on demand.
//
// The store is sharded by contract address: each shard owns a subdirectory,
// its own lock, its own LRU window (limit/shards, floor 1) and its own
// eviction batch, so concurrent responders on different engagements never
// serialize on one global mutex or pile files into one directory. Evictions
// are batched off the hot path: a victim leaves the LRU window into a
// pending set under the shard lock, and the marshal + file write happen
// outside the lock once the batch fills (or on Flush). Until its write
// commits, a pending prover is still authoritative — a Get promotes it back
// without touching disk, a Put supersedes it, a Delete drops it, and the
// flusher discards its own stale write in those cases.
//
// A flushed batch is coalesced into one segment file — one create + one
// write for the whole batch instead of one file per record, the same group
// commit the journal applies to its appends. The always-resident index
// remembers each record's segment, offset and length; a segment file is
// reference-counted and removed when its last record is rehydrated,
// superseded or deleted. Spill is a cache, not a durability layer — a crash
// rebuilds audit state from the owner — so segments carry no fsync; each
// record keeps its own integrity checksum (core.MarshalAuditState), so a
// torn or tampered segment read still surfaces.
//
// What stays resident per spilled engagement is the index entry: the public
// key (shared across all of one owner's engagements, deliberately not part
// of the spill record) and the worker bound. Rehydration is deterministic —
// the spill codec round-trips exactly, pinned by the golden tests — so a
// rehydrated prover produces byte-identical proofs given the same entropy.
//
// A record that fails its integrity check surfaces as a GetProver error
// (distinct from "never held"), which a responder reports as a failed
// round: audit state a provider cannot faithfully reproduce is exactly what
// an audit is meant to catch, so corruption must never be papered over.
//
// Safe for concurrent use.
type SpillStore struct {
	dir    string
	shards []*spillShard
	batch  int

	spills   atomic.Uint64
	hydrates atomic.Uint64
	batches  atomic.Uint64
	resident atomic.Int64
	peak     atomic.Int64
	segs     atomic.Int64  // live segment files on disk
	segCtr   atomic.Uint64 // segment file namer, store-wide
}

// spillShard is one shard: an LRU window over resident provers, the
// always-resident index, and the pending eviction batch.
type spillShard struct {
	dir   string
	limit int

	mu       sync.Mutex
	resident map[chain.Address]*list.Element
	lru      *list.List // front = most recently used *residentEntry
	meta     map[chain.Address]*spillMeta
	pending  map[chain.Address]*core.Prover // evicted, write not yet committed
	flushing bool
}

type residentEntry struct {
	addr   chain.Address
	prover *core.Prover
}

// spillSegment is one coalesced batch write on disk, shared by the records
// it holds and removed when the last of them is released.
type spillSegment struct {
	path string
	live int // records in this segment the index still points at
}

// spillMeta is the always-resident index entry for one engagement.
type spillMeta struct {
	pub     *core.PublicKey
	workers int
	seg     *spillSegment // nil while the prover is resident or pending
	off     int64         // record offset within seg
	size    int64         // record length within seg
}

// release drops the meta's segment reference, removing the segment file
// when it was the last, and reports whether a file was removed so the
// store can keep its live-segment gauge current. Caller holds the shard
// lock.
func (m *spillMeta) release() bool {
	if m.seg == nil {
		return false
	}
	m.seg.live--
	removed := m.seg.live == 0
	if removed {
		os.Remove(m.seg.path)
	}
	m.seg = nil
	return removed
}

// SpillStats counts the store's paging activity.
type SpillStats struct {
	Spills       uint64 // provers written to disk on eviction
	Hydrates     uint64 // provers read back from disk
	Batches      uint64 // eviction batches flushed
	Resident     int    // provers currently hydrated (LRU windows only)
	ResidentPeak int    // high-water mark of Resident
	Segments     int    // coalesced segment files currently on disk
}

// releaseMeta drops a meta's segment reference through the store so the
// segment gauge tracks file removal. Caller holds the shard lock.
func (s *SpillStore) releaseMeta(m *spillMeta) {
	if m.release() {
		s.segs.Add(-1)
	}
}

// Instrument registers the store's dsn_spill_* metric family on reg.
// Every series is func-backed over the store's existing atomics, so
// instrumentation adds nothing to the paging hot path.
func (s *SpillStore) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("dsn_spill_evictions_total", "provers written to disk on eviction",
		func() float64 { return float64(s.spills.Load()) })
	reg.CounterFunc("dsn_spill_hydrations_total", "provers read back from disk",
		func() float64 { return float64(s.hydrates.Load()) })
	reg.CounterFunc("dsn_spill_batches_total", "eviction batches flushed",
		func() float64 { return float64(s.batches.Load()) })
	reg.GaugeFunc("dsn_spill_resident", "provers currently hydrated",
		func() float64 { return float64(s.resident.Load()) })
	reg.GaugeFunc("dsn_spill_resident_peak", "high-water mark of hydrated provers",
		func() float64 { return float64(s.peak.Load()) })
	reg.GaugeFunc("dsn_spill_segments", "coalesced segment files on disk",
		func() float64 { return float64(s.segs.Load()) })
}

var _ dsnaudit.ProverStore = (*SpillStore)(nil)

// NewSpillStore creates a spill-backed prover store rooted at dir (created
// if missing). limit is the total hydration window across shards; at least 1.
func NewSpillStore(dir string, limit int) (*SpillStore, error) {
	return newSpillStore(dir, limit, 8, 8)
}

// newSpillStore is NewSpillStore with the layout explicit: the shard count
// (reduced so every shard keeps a window of at least one) and how many
// evictions accumulate before their records are written out as one segment.
func newSpillStore(dir string, limit, shards, batch int) (*SpillStore, error) {
	if limit < 1 {
		return nil, fmt.Errorf("sched: spill store needs a hydration window >= 1, got %d", limit)
	}
	if shards > limit {
		shards = limit
	}
	s := &SpillStore{dir: dir, shards: make([]*spillShard, shards), batch: batch}
	perShard := limit / shards
	for i := range s.shards {
		shardDir := filepath.Join(dir, fmt.Sprintf("shard-%02d", i))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return nil, fmt.Errorf("sched: spill dir: %w", err)
		}
		s.shards[i] = &spillShard{
			dir:      shardDir,
			limit:    perShard,
			resident: make(map[chain.Address]*list.Element),
			lru:      list.New(),
			meta:     make(map[chain.Address]*spillMeta),
			pending:  make(map[chain.Address]*core.Prover),
		}
	}
	return s, nil
}

// shardFor routes an address to its shard (FNV-1a).
func (s *SpillStore) shardFor(addr chain.Address) *spillShard {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return s.shards[int(h.Sum32()%uint32(len(s.shards)))]
}

// Stats snapshots the store's paging counters.
func (s *SpillStore) Stats() SpillStats {
	return SpillStats{
		Spills:       s.spills.Load(),
		Hydrates:     s.hydrates.Load(),
		Batches:      s.batches.Load(),
		Resident:     int(s.resident.Load()),
		ResidentPeak: int(s.peak.Load()),
		Segments:     int(s.segs.Load()),
	}
}

// trackResident adjusts the global resident gauge and its high-water mark.
func (s *SpillStore) trackResident(delta int64) {
	n := s.resident.Add(delta)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// PutProver installs audit state, evicting least-recently-used provers past
// the shard's hydration window.
func (s *SpillStore) PutProver(addr chain.Address, p *core.Prover) error {
	sh := s.shardFor(addr)
	sh.mu.Lock()
	if old, ok := sh.meta[addr]; ok {
		// Replacing a spilled engagement: the old record is stale.
		s.releaseMeta(old)
	}
	delete(sh.pending, addr) // a pending write of the old prover is stale too
	sh.meta[addr] = &spillMeta{pub: p.Pub, workers: p.Workers}
	if el, ok := sh.resident[addr]; ok {
		el.Value.(*residentEntry).prover = p
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		return nil
	}
	sh.resident[addr] = sh.lru.PushFront(&residentEntry{addr: addr, prover: p})
	s.trackResident(1)
	due := s.evictLocked(sh)
	sh.mu.Unlock()
	if due {
		return s.flushShard(sh)
	}
	return nil
}

// GetProver returns the audit state for a contract, rehydrating from disk
// when it was spilled. A prover whose eviction is still pending is promoted
// back into the window without any disk I/O. A spill record that fails its
// checksum or does not decode returns an error, not (nil, false): the state
// existed and cannot be reproduced.
func (s *SpillStore) GetProver(addr chain.Address) (*core.Prover, bool, error) {
	sh := s.shardFor(addr)
	sh.mu.Lock()
	if el, ok := sh.resident[addr]; ok {
		sh.lru.MoveToFront(el)
		p := el.Value.(*residentEntry).prover
		sh.mu.Unlock()
		return p, true, nil
	}
	if p, ok := sh.pending[addr]; ok {
		// Evicted but not yet written: promote straight back. The flusher
		// sees the pending entry gone and discards any write it raced.
		delete(sh.pending, addr)
		sh.resident[addr] = sh.lru.PushFront(&residentEntry{addr: addr, prover: p})
		s.trackResident(1)
		due := s.evictLocked(sh)
		sh.mu.Unlock()
		if due {
			if err := s.flushShard(sh); err != nil {
				return nil, false, err
			}
		}
		return p, true, nil
	}
	m, ok := sh.meta[addr]
	if !ok {
		sh.mu.Unlock()
		return nil, false, nil
	}
	data, err := readSegmentRecord(m)
	if err != nil {
		sh.mu.Unlock()
		return nil, false, fmt.Errorf("sched: read spill record for %s: %w", addr, err)
	}
	ef, auths, err := core.UnmarshalAuditState(data)
	if err != nil {
		sh.mu.Unlock()
		return nil, false, fmt.Errorf("sched: spill record for %s: %w", addr, err)
	}
	p, err := core.NewProver(m.pub, ef, auths)
	if err != nil {
		sh.mu.Unlock()
		return nil, false, fmt.Errorf("sched: rehydrate %s: %w", addr, err)
	}
	p.Workers = m.workers
	s.hydrates.Add(1)
	s.releaseMeta(m)
	sh.resident[addr] = sh.lru.PushFront(&residentEntry{addr: addr, prover: p})
	s.trackResident(1)
	due := s.evictLocked(sh)
	sh.mu.Unlock()
	if due {
		if err := s.flushShard(sh); err != nil {
			return nil, false, err
		}
	}
	return p, true, nil
}

// DeleteProver discards the audit state wherever it lives: the LRU window,
// the pending batch, or disk.
func (s *SpillStore) DeleteProver(addr chain.Address) error {
	sh := s.shardFor(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.resident[addr]; ok {
		sh.lru.Remove(el)
		delete(sh.resident, addr)
		s.trackResident(-1)
	}
	delete(sh.pending, addr)
	if m, ok := sh.meta[addr]; ok {
		s.releaseMeta(m)
		delete(sh.meta, addr)
	}
	return nil
}

// readSegmentRecord reads one record's bytes out of its segment file. Caller
// holds the shard lock; m.seg must be non-nil.
func readSegmentRecord(m *spillMeta) ([]byte, error) {
	if m.seg == nil {
		return nil, fmt.Errorf("record has no spill segment")
	}
	f, err := os.Open(m.seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, m.size)
	if _, err := f.ReadAt(buf, m.off); err != nil {
		return nil, err
	}
	return buf, nil
}

// Flush forces every pending eviction to disk. Callers shutting a node down
// cleanly use it; crash recovery does not need it (pending provers are
// rebuilt from the owner like any uninstalled state).
func (s *SpillStore) Flush() error {
	var first error
	for _, sh := range s.shards {
		if err := s.flushShard(sh); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// evictLocked moves LRU victims past the window into the pending batch.
// Caller holds sh.mu. Returns whether the batch is due for a flush.
func (s *SpillStore) evictLocked(sh *spillShard) bool {
	for len(sh.resident) > sh.limit {
		el := sh.lru.Back()
		re := el.Value.(*residentEntry)
		sh.lru.Remove(el)
		delete(sh.resident, re.addr)
		sh.pending[re.addr] = re.prover
		s.trackResident(-1)
	}
	return len(sh.pending) >= s.batch && !sh.flushing
}

// flushShard writes the shard's pending evictions out as one coalesced
// segment. The snapshot is taken under the shard lock; the marshal and the
// single segment write run outside it; each record then commits under the
// lock only if the pending entry is still the one written (a concurrent
// Get/Put/Delete supersedes it, and a record dead on arrival just never
// takes a segment reference). A segment nobody ended up referencing is
// removed before the flush returns. Caller must not hold sh.mu.
func (s *SpillStore) flushShard(sh *spillShard) error {
	type item struct {
		addr   chain.Address
		prover *core.Prover
		off    int64
		size   int64
	}
	sh.mu.Lock()
	if sh.flushing || len(sh.pending) == 0 {
		sh.mu.Unlock()
		return nil
	}
	sh.flushing = true
	batch := make([]item, 0, len(sh.pending))
	for addr, p := range sh.pending {
		batch = append(batch, item{addr: addr, prover: p})
	}
	sh.mu.Unlock()

	var first error
	var seg []byte
	kept := make([]item, 0, len(batch))
	for _, it := range batch {
		data, err := core.MarshalAuditState(it.prover.File, it.prover.Auths)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("sched: spill %s: %w", it.addr, err)
			}
			continue
		}
		it.off = int64(len(seg))
		it.size = int64(len(data))
		seg = append(seg, data...)
		kept = append(kept, it)
	}
	if len(kept) == 0 {
		sh.mu.Lock()
		sh.flushing = false
		sh.mu.Unlock()
		return first
	}
	path := filepath.Join(sh.dir, fmt.Sprintf("seg-%08d.state", s.segCtr.Add(1)))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		if first == nil {
			first = fmt.Errorf("sched: spill segment: %w", err)
		}
		sh.mu.Lock()
		sh.flushing = false
		sh.mu.Unlock()
		return first
	}
	segRef := &spillSegment{path: path}
	sh.mu.Lock()
	for _, it := range kept {
		cur, pendingOK := sh.pending[it.addr]
		m, alive := sh.meta[it.addr]
		if pendingOK && cur == it.prover && alive {
			delete(sh.pending, it.addr)
			m.seg = segRef
			m.off = it.off
			m.size = it.size
			segRef.live++
			s.spills.Add(1)
		}
		// Else: promoted, replaced or deleted while we wrote. The record is
		// dead weight in the segment and goes when the live count does.
	}
	if segRef.live == 0 {
		os.Remove(path)
	} else {
		s.segs.Add(1)
	}
	sh.flushing = false
	sh.mu.Unlock()
	s.batches.Add(1)
	return first
}
