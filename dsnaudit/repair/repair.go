// Package repair closes the durability loop the paper leaves implicit: an
// audit that convicts a provider proves a share is lost or untrustworthy,
// but conviction alone does not put the data back. The Manager listens to
// the Scheduler's terminal outcomes and, for every sharded engagement that
// ends badly, runs detect → reconstruct → re-place → re-engage:
//
//  1. Detect: the Scheduler's outcome hook fires the moment a contract
//     aborts (failed proof, missed deadline) or errors out.
//  2. Reconstruct: the manager fetches surviving shares from the file's
//     other holders — in-process or over the dsnaudit/remote wire protocol
//     (ShareRequest/ShareData) — verifies each against the manifest's
//     per-share hash, and erasure-decodes the lost share back.
//  3. Re-place: a replacement holder comes from a reputation-weighted DHT
//     lookup (Network.LocateReplacement), excluding the convicted node and
//     the file's current holders.
//  4. Re-engage: the owner's audit state for the share is rebuilt
//     deterministically from the reconstructed bytes, and a fresh contract
//     (generation+1) is registered with the running scheduler.
//
// Repairs run synchronously inside the outcome hook, on the scheduler's
// Run goroutine: which block a repair lands at depends only on when the
// audit convicted, never on goroutine timing, so churn runs are
// reproducible for a fixed seed.
package repair

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/erasure"
	"repro/internal/obs"
	"repro/internal/reputation"
	"repro/internal/storage"
)

// Errors returned (inside Record.Err) by the repair pipeline.
var (
	// ErrInsufficientShares: fewer than K survivors could be fetched and
	// verified; the share is unrecoverable until holders come back.
	errInsufficientShares = errors.New("repair: insufficient surviving shares")
	// ErrReconstructMismatch: the erasure decode succeeded but the result
	// does not match the manifest hashes — a verified-looking survivor set
	// still produced the wrong bytes.
	errReconstructMismatch = errors.New("repair: reconstructed data fails integrity check")
)

// Option customizes a Manager.
type Option func(*Manager)

// WithPeers sets the transport selector: how the manager reaches each
// provider for share fetches, share placement and re-engagement. The
// default talks to the ProviderNode in-process; a selector returning
// remote.Clients runs the whole repair path over TCP. Churn engines use it
// to interpose mortality.
func WithPeers(fn func(*dsnaudit.ProviderNode) dsnaudit.RepairPeer) Option {
	return func(m *Manager) { m.peerFor = fn }
}

// WithHorizon enables contract renewal: an engagement that expires cleanly
// before block height h is re-engaged on the same holder (generation+1),
// keeping the file under continuous audit — the steady state a churn run
// perturbs. Expiries at or past the horizon retire the share slot, which is
// what lets a bounded experiment drain naturally. Zero (the default)
// disables renewal.
func WithHorizon(h uint64) Option {
	return func(m *Manager) { m.horizon = h }
}

// Stats is the manager's durability accounting.
type Stats struct {
	SharesLost          int   // tracked engagements that ended in conviction or error
	SharesReconstructed int   // lost shares erasure-decoded back from survivors
	SharesRepaired      int   // losses closed by a successful re-placement
	SharesUnrecovered   int   // losses the pipeline could not close
	Renewals            int   // clean expiries re-engaged on the same holder
	FetchesServed       int   // survivor shares fetched and verified
	FetchesRefused      int   // survivor fetches that failed or failed verification
	BytesMoved          int64 // survivor bytes fetched plus reconstructed bytes pushed
}

// Record documents one repair attempt.
type Record struct {
	File       string
	Index      int
	Generation int    // generation of the replacement engagement (success only)
	From       string // the convicted holder
	To         string // the replacement holder ("" if the repair failed)
	Height     uint64 // block height the repair ran at
	Survivors  int    // shares fetched for the reconstruction
	Bytes      int    // bytes moved by this repair
	Err        error  // nil on success
}

// Manager drives the repair pipeline for tracked sharded files. Create it
// with NewManager before Scheduler.Run starts; it registers the outcome and
// block hooks it needs. Safe for concurrent use.
type Manager struct {
	owner   *dsnaudit.Owner
	net     *dsnaudit.Network
	sched   *sched.Scheduler
	peerFor func(*dsnaudit.ProviderNode) dsnaudit.RepairPeer
	horizon uint64
	tracer  *obs.Tracer

	mu      sync.Mutex
	height  uint64
	files   map[string]*trackedFile
	byID    map[chain.Address]*slot
	stats   Stats
	repairs []Record
}

// trackedFile is one sharded stored file under repair management.
type trackedFile struct {
	sf    *dsnaudit.StoredFile
	terms dsnaudit.EngagementTerms
	slots []*slot // by share index
}

// slot is the live engagement covering one share: the unit that gets
// renewed or repaired. A terminal outcome retires the slot; its successor
// (same index, generation+1) takes its place.
type slot struct {
	file       *trackedFile
	index      int
	generation int
	holder     *dsnaudit.ProviderNode
	eng        *dsnaudit.Engagement
}

// NewManager creates a repair manager bound to one owner and one scheduler
// and registers its scheduler hooks. Call before Scheduler.Run: outcomes
// are not replayed for late hooks.
func NewManager(owner *dsnaudit.Owner, s *sched.Scheduler, opts ...Option) *Manager {
	m := &Manager{
		owner:   owner,
		net:     owner.Network(),
		sched:   s,
		peerFor: func(p *dsnaudit.ProviderNode) dsnaudit.RepairPeer { return p },
		files:   make(map[string]*trackedFile),
		byID:    make(map[chain.Address]*slot),
	}
	for _, opt := range opts {
		opt(m)
	}
	s.OnBlock(func(h uint64) {
		m.mu.Lock()
		m.height = h
		m.mu.Unlock()
	})
	s.OnOutcome(m.onOutcome)
	return m
}

// Track puts one sharded file under repair management: the set's
// engagements (from EngageShares) become the file's generation-0 slots, and
// terms is what replacement and renewal contracts are negotiated with.
func (m *Manager) Track(sf *dsnaudit.StoredFile, set *dsnaudit.EngagementSet, terms dsnaudit.EngagementTerms) error {
	if sf.Shares == nil {
		return fmt.Errorf("repair: %s was not outsourced sharded", sf.Manifest.Name)
	}
	tf := &trackedFile{sf: sf, terms: terms, slots: make([]*slot, len(sf.Shares))}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[sf.Manifest.Name]; ok {
		return fmt.Errorf("repair: %s is already tracked", sf.Manifest.Name)
	}
	for _, e := range set.Engagements {
		if e.ShareIndex < 0 || e.ShareIndex >= len(tf.slots) {
			return fmt.Errorf("repair: engagement %s does not cover a share of %s", e.ID(), sf.Manifest.Name)
		}
		s := &slot{file: tf, index: e.ShareIndex, generation: e.Generation, holder: e.Provider, eng: e}
		tf.slots[e.ShareIndex] = s
		m.byID[e.ID()] = s
	}
	for i, s := range tf.slots {
		if s == nil {
			return fmt.Errorf("repair: no engagement covers share %d of %s", i, sf.Manifest.Name)
		}
	}
	m.files[sf.Manifest.Name] = tf
	return nil
}

// Stats returns a snapshot of the durability accounting.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Repairs returns the repair attempts so far, in the order they ran.
func (m *Manager) Repairs() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Record(nil), m.repairs...)
}

// Current returns the live engagement covering one share slot; churn
// engines use it to aim targeted misbehaviour (prover corruption) at the
// contract actually under audit.
func (m *Manager) Current(file string, index int) (*dsnaudit.Engagement, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tf, ok := m.files[file]
	if !ok || index < 0 || index >= len(tf.slots) {
		return nil, false
	}
	return tf.slots[index].eng, true
}

// onOutcome is the detect stage: every scheduler outcome lands here, and
// the ones covering tracked share slots get classified. A clean expiry
// renews (inside the horizon) or retires the slot; everything else — an
// aborted contract or a terminal error — is a loss and enters the repair
// pipeline.
func (m *Manager) onOutcome(out dsnaudit.Outcome) {
	m.mu.Lock()
	s, ok := m.byID[out.ID]
	if ok {
		delete(m.byID, out.ID)
	}
	height, horizon := m.height, m.horizon
	m.mu.Unlock()
	if !ok || s.file.slots[s.index] != s {
		return // untracked, or superseded by a newer generation
	}
	if out.Result.State == contract.StateExpired && out.Result.Err == nil {
		if horizon == 0 || height >= horizon {
			return // slot retires; the churn run is draining
		}
		if err := m.renew(s); err == nil {
			return
		}
		// The holder served to expiry but cannot re-engage (gone between
		// its last proof and the renewal handshake). Its copy of the share
		// is unreachable all the same, so fall through to repair.
	}
	m.repairShare(s)
}

// renew re-engages a cleanly expired slot on the same holder at
// generation+1. The holder still stores the share; only the audit state is
// handed over again.
func (m *Manager) renew(s *slot) error {
	tf := s.file
	eng, err := m.owner.EngageShare(context.Background(), tf.sf, s.index, s.generation+1, s.holder, m.peerFor(s.holder), tf.terms)
	if err != nil {
		return err
	}
	if err := m.sched.Add(eng); err != nil {
		return err
	}
	ns := &slot{file: tf, index: s.index, generation: s.generation + 1, holder: s.holder, eng: eng}
	m.mu.Lock()
	tf.slots[s.index] = ns
	m.byID[eng.ID()] = ns
	m.stats.Renewals++
	m.mu.Unlock()
	return nil
}

// repairShare runs reconstruct → re-place → re-engage for one lost share.
func (m *Manager) repairShare(s *slot) {
	tf := s.file
	man := tf.sf.Manifest
	ctx := context.Background()

	m.mu.Lock()
	m.stats.SharesLost++
	rec := Record{File: man.Name, Index: s.index, From: s.holder.Name, Height: m.height}
	m.mu.Unlock()

	// Reconstruct: fetch until K survivors verify, lowest index first. The
	// manifest's per-share hash identifies a corrupted survivor at the
	// source, so a holder serving rotten bytes is refused (and recorded as
	// such in reputation) instead of poisoning the decode. Every current
	// holder — serving or not — is excluded from the replacement search: a
	// node must never hold two shares of the same file.
	shares := make([][]byte, man.K+man.M)
	exclude := map[string]bool{s.holder.Name: true}
	for j, other := range tf.slots {
		if j != s.index {
			exclude[other.holder.Name] = true
		}
	}
	got, fetched := 0, 0
	for j, other := range tf.slots {
		if j == s.index || got >= man.K {
			continue
		}
		data, err := m.peerFor(other.holder).FetchShare(ctx, man.ShareKeys[j])
		if err != nil || !man.VerifyShare(j, data) {
			m.net.Reputation.Observe(other.holder.Name, reputation.EventRepairRefused)
			m.mu.Lock()
			m.stats.FetchesRefused++
			m.mu.Unlock()
			continue
		}
		m.net.Reputation.Observe(other.holder.Name, reputation.EventRepairServed)
		shares[j] = data
		got++
		fetched += len(data)
		m.mu.Lock()
		m.stats.FetchesServed++
		m.mu.Unlock()
	}
	rec.Survivors = got
	if got < man.K {
		m.fail(rec, fmt.Errorf("%w: %d of %d needed for %s share %d", errInsufficientShares, got, man.K, man.Name, s.index))
		return
	}

	share, err := Reconstruct(man, shares, s.index)
	if err != nil {
		m.fail(rec, err)
		return
	}
	m.mu.Lock()
	m.stats.SharesReconstructed++
	m.mu.Unlock()

	// Re-engage prerequisite: rebuild the owner's audit state from the
	// reconstructed bytes (deterministic, so the authenticators match the
	// originals exactly).
	if err := m.owner.RebuildShareAudit(tf.sf, s.index, share); err != nil {
		m.fail(rec, err)
		return
	}

	// Re-place: reputation-weighted candidates, best first; the first one
	// that accepts both the share bytes and the fresh contract wins.
	cands, err := m.net.LocateReplacement(man.ShareKeys[s.index], exclude)
	if err != nil {
		m.fail(rec, err)
		return
	}
	for _, cand := range cands {
		peer := m.peerFor(cand)
		if err := peer.PutShare(ctx, man.ShareKeys[s.index], share); err != nil {
			continue
		}
		eng, err := m.owner.EngageShare(ctx, tf.sf, s.index, s.generation+1, cand, peer, tf.terms)
		if err != nil {
			continue
		}
		if err := m.sched.Add(eng); err != nil {
			continue
		}
		ns := &slot{file: tf, index: s.index, generation: s.generation + 1, holder: cand, eng: eng}
		rec.To = cand.Name
		rec.Generation = ns.generation
		rec.Bytes = fetched + len(share)
		m.mu.Lock()
		tf.sf.Holders[s.index] = cand
		tf.slots[s.index] = ns
		m.byID[eng.ID()] = ns
		m.stats.SharesRepaired++
		m.stats.BytesMoved += int64(rec.Bytes)
		m.repairs = append(m.repairs, rec)
		m.mu.Unlock()
		m.traceRepaired(string(eng.ID()), rec)
		return
	}
	m.fail(rec, fmt.Errorf("%w: all candidates refused %s share %d", dsnaudit.ErrNoReplacement, man.Name, s.index))
}

// fail records an unrecovered loss.
func (m *Manager) fail(rec Record, err error) {
	rec.Err = err
	m.mu.Lock()
	m.stats.SharesUnrecovered++
	m.repairs = append(m.repairs, rec)
	m.mu.Unlock()
}

// Reconstruct erasure-decodes one lost share from verified survivors
// (nil = missing) and checks the result against the manifest end to end:
// the decoded blob must match the whole-blob ContentHash and the re-split
// share must match its per-share hash. It is the pure data-plane core of
// repairShare, exported for tests and benchmarks.
func Reconstruct(man *storage.Manifest, shares [][]byte, index int) ([]byte, error) {
	coder, err := erasure.NewCoder(man.K, man.M)
	if err != nil {
		return nil, err
	}
	blob, err := coder.Join(shares, man.SealedSize)
	if err != nil {
		return nil, err
	}
	if sha256.Sum256(blob) != man.ContentHash {
		return nil, fmt.Errorf("%w: blob hash mismatch for %s", errReconstructMismatch, man.Name)
	}
	all, err := coder.Split(blob)
	if err != nil {
		return nil, err
	}
	share := all[index]
	if !man.VerifyShare(index, share) {
		return nil, fmt.Errorf("%w: share %d hash mismatch for %s", errReconstructMismatch, index, man.Name)
	}
	return share, nil
}
