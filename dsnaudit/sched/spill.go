package sched

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/obs"
)

// spillStore is a dsnaudit.ProverStore that keeps at most `limit` decoded
// provers resident and reads the rest back from disk, so a provider node's
// audit-state memory is bounded by its hydration window, not its engagement
// count.
//
// Audit state does not change after Setup, so each prover is written once:
// PutProver marshals it (core.MarshalAuditState, outside the shard lock) and
// appends the record to its shard's open segment, and the index entry points
// at that record until DeleteProver or a replacing PutProver releases it. A
// GetProver miss decodes the record and leaves it in place; an eviction just
// forgets the decoded prover. Nothing a caller does to a prover it was
// handed is written back. Segments are append-only files, opened per append
// (no descriptor held, no Close needed), rolled at one constant size and
// removed when the index releases their last record.
//
// The store is a cache, not a durability layer: the index lives in memory, a
// crash rebuilds audit state from the owner, segments carry no fsync. It owns
// its directory: newSpillStore removes the segments a previous process left,
// which nothing can reach any more.
//
// It is safe for concurrent use and sharded by contract address — a
// subdirectory, lock, LRU window (limit/shards, floor 1) and open segment
// per shard — so responders on different engagements never serialize on one
// mutex or pile files into one directory. The codec round-trips exactly
// (golden tests), so a rehydrated prover's proofs are byte-identical given
// the same entropy, and every record carries its own checksum.
type spillStore struct {
	shards   []*spillShard
	segBytes int64 // roll size: small records share a file, freed once all have retired

	spills   atomic.Uint64
	hydrates atomic.Uint64
	resident atomic.Int64
	peak     atomic.Int64
	segs     atomic.Int64  // live segment files on disk
	segCtr   atomic.Uint64 // segment file namer, store-wide
}

// spillShard is one shard: the always-resident index, an LRU window over
// the entries whose prover is decoded, and the segment appends go to.
type spillShard struct {
	dir   string
	limit int

	mu   sync.Mutex
	meta map[chain.Address]*spillMeta
	lru  list.List     // the *spillMeta holding a prover; front = most recently used
	open *spillSegment // nil before the first append and after a roll
}

// spillSegment is one append-only file of records.
type spillSegment struct {
	path string
	size int64 // bytes appended so far
	live int   // records in this segment the index still points at
}

// spillMeta is the always-resident index entry for one engagement. The
// public key is shared by all of an owner's engagements and deliberately not
// in the record (core.MarshalAuditState).
type spillMeta struct {
	pub       *core.PublicKey
	workers   int
	seg       *spillSegment
	off, size int64 // the record's place within seg

	prover *core.Prover  // the decoded state while inside the window, else nil
	el     *list.Element // its place in the shard's lru while prover is set
}

// SpillStats counts the store's paging activity.
type SpillStats struct {
	Spills       uint64 // records written: one per PutProver, none on eviction
	Hydrates     uint64 // provers decoded back from their record
	Resident     int    // provers currently hydrated (LRU windows only)
	ResidentPeak int    // high-water mark of Resident
	Segments     int    // segment files currently on disk
}

// instrument registers the store's dsn_spill_* metric family on reg; every
// series is func-backed over the store's atomics, so paging pays nothing.
func (s *spillStore) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("dsn_spill_writes_total", "audit-state records written (one per PutProver)",
		func() float64 { return float64(s.spills.Load()) })
	reg.CounterFunc("dsn_spill_hydrations_total", "provers decoded back from disk",
		func() float64 { return float64(s.hydrates.Load()) })
	reg.GaugeFunc("dsn_spill_resident", "provers currently hydrated",
		func() float64 { return float64(s.resident.Load()) })
	reg.GaugeFunc("dsn_spill_resident_peak", "high-water mark of hydrated provers",
		func() float64 { return float64(s.peak.Load()) })
	reg.GaugeFunc("dsn_spill_segments", "segment files on disk",
		func() float64 { return float64(s.segs.Load()) })
}

// spillShards is the soak's spill-store shard count.
const spillShards = 8

// newSpillStore creates a spill-backed prover store rooted at dir (created
// if missing; segment files already there are removed). limit is the total
// hydration window across shards, at least 1; the shard count is reduced so
// every shard keeps a window of at least one.
func newSpillStore(dir string, limit, shards int) (*spillStore, error) {
	if limit < 1 {
		return nil, fmt.Errorf("sched: spill store needs a hydration window >= 1, got %d", limit)
	}
	if shards > limit {
		shards = limit
	}
	s := &spillStore{shards: make([]*spillShard, shards), segBytes: 1 << 20}
	for i := range s.shards {
		shardDir := filepath.Join(dir, fmt.Sprintf("shard-%02d", i))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return nil, fmt.Errorf("sched: spill dir: %w", err)
		}
		left, err := os.ReadDir(shardDir)
		if err != nil {
			return nil, fmt.Errorf("sched: spill dir: %w", err)
		}
		for _, e := range left { // a previous store's segments: their index is gone
			if ok, _ := filepath.Match("seg-*.state", e.Name()); ok {
				if err := os.Remove(filepath.Join(shardDir, e.Name())); err != nil {
					return nil, fmt.Errorf("sched: spill dir: %w", err)
				}
			}
		}
		s.shards[i] = &spillShard{
			dir:   shardDir,
			limit: limit / shards,
			meta:  make(map[chain.Address]*spillMeta),
		}
	}
	return s, nil
}

// shardFor routes an address to its shard (FNV-1a).
func (s *spillStore) shardFor(addr chain.Address) *spillShard {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return s.shards[int(h.Sum32()%uint32(len(s.shards)))]
}

// stats snapshots the store's paging counters.
func (s *spillStore) stats() SpillStats {
	return SpillStats{
		Spills:       s.spills.Load(),
		Hydrates:     s.hydrates.Load(),
		Resident:     int(s.resident.Load()),
		ResidentPeak: int(s.peak.Load()),
		Segments:     int(s.segs.Load()),
	}
}

// trackResident adjusts the global resident gauge and its high-water mark.
func (s *spillStore) trackResident(delta int64) {
	n := s.resident.Add(delta)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// PutProver writes the audit state's record and admits the prover to the
// shard's window. Replacing a contract's state releases the record it had;
// a failed write leaves the store as it was.
func (s *spillStore) PutProver(addr chain.Address, p *core.Prover) error {
	data, err := core.MarshalAuditState(p.File, p.Auths)
	if err != nil {
		return fmt.Errorf("sched: spill %s: %w", addr, err)
	}
	sh := s.shardFor(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := &spillMeta{pub: p.Pub, workers: p.Workers}
	if err := s.appendRecord(sh, m, data); err != nil {
		return fmt.Errorf("sched: spill %s: %w", addr, err)
	}
	if old, ok := sh.meta[addr]; ok {
		s.forget(sh, old)
	}
	sh.meta[addr] = m
	s.admit(sh, m, p)
	return nil
}

// GetProver returns the audit state for a contract, decoding its record
// when the prover is not resident. A record that cannot be read, fails its
// checksum or does not decode returns an error, not (nil, false): the state
// existed and cannot be reproduced.
func (s *spillStore) GetProver(addr chain.Address) (*core.Prover, bool, error) {
	sh := s.shardFor(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.meta[addr]
	if !ok {
		return nil, false, nil
	}
	if m.prover != nil {
		sh.lru.MoveToFront(m.el)
		return m.prover, true, nil
	}
	p, err := m.hydrate()
	if err != nil {
		return nil, false, fmt.Errorf("sched: spill record for %s: %w", addr, err)
	}
	s.hydrates.Add(1)
	s.admit(sh, m, p)
	return p, true, nil
}

// DeleteProver discards the audit state for a contract.
func (s *spillStore) DeleteProver(addr chain.Address) error {
	sh := s.shardFor(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m, ok := sh.meta[addr]; ok {
		s.forget(sh, m)
		delete(sh.meta, addr)
	}
	return nil
}

// admit puts a decoded prover at the front of the shard's window and evicts
// past it. Caller holds sh.mu.
func (s *spillStore) admit(sh *spillShard, m *spillMeta, p *core.Prover) {
	m.prover, m.el = p, sh.lru.PushFront(m)
	s.trackResident(1)
	for sh.lru.Len() > sh.limit {
		s.evict(sh, sh.lru.Back().Value.(*spillMeta))
	}
}

// evict forgets an entry's decoded prover; its record stays where it is.
// Caller holds sh.mu.
func (s *spillStore) evict(sh *spillShard, m *spillMeta) {
	sh.lru.Remove(m.el)
	m.prover, m.el = nil, nil
	s.trackResident(-1)
}

// forget takes an index entry out of the window and gives up its record,
// removing the segment file with its last record. Caller holds sh.mu.
func (s *spillStore) forget(sh *spillShard, m *spillMeta) {
	if m.prover != nil {
		s.evict(sh, m)
	}
	if m.seg.live--; m.seg.live > 0 {
		return
	}
	os.Remove(m.seg.path)
	s.segs.Add(-1)
	if sh.open == m.seg {
		sh.open = nil
	}
}

// appendRecord writes data at the end of the shard's open segment, starting
// a new file when there is none, and points m at the record. The write is
// positioned at the size the store has counted, so bytes a failed append
// left behind are overwritten by the next one. Caller holds sh.mu.
func (s *spillStore) appendRecord(sh *spillShard, m *spillMeta, data []byte) error {
	if sh.open == nil {
		sh.open = &spillSegment{path: filepath.Join(sh.dir, fmt.Sprintf("seg-%08d.state", s.segCtr.Add(1)))}
		s.segs.Add(1)
	}
	seg := sh.open
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, seg.size)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m.seg, m.off, m.size = seg, seg.size, int64(len(data))
	seg.size += m.size
	seg.live++
	if seg.size >= s.segBytes {
		sh.open = nil
	}
	s.spills.Add(1)
	return nil
}

// hydrate reads the record back and rebuilds its prover. Caller holds sh.mu.
func (m *spillMeta) hydrate() (*core.Prover, error) {
	f, err := os.Open(m.seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, m.size)
	if _, err := f.ReadAt(buf, m.off); err != nil {
		return nil, err
	}
	ef, auths, err := core.UnmarshalAuditState(buf)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProver(m.pub, ef, auths)
	if err != nil {
		return nil, err
	}
	p.Workers = m.workers
	return p, nil
}
