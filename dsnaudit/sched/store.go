package sched

import (
	"fmt"
	"sync"

	"repro/dsnaudit"
	"repro/internal/chain"
)

// phase is the scheduler's per-entry state machine. phaseRetry parks an
// entry whose provider refused a challenge with ErrOverloaded, to re-ask
// after the backoff instead of waiting out the proof deadline into a slash.
type phase int

const (
	phaseWaiting  phase = iota // in AUDIT, armed at the trigger height
	phaseProving               // challenge issued, proof job in flight
	phaseSettling              // proof sealed, verdict owned by the settlement stage
	phaseDeadline              // responder failed; armed at the proof deadline
	phaseRetry                 // provider overloaded; armed at the backoff height
	phaseDone                  // terminal
)

// entry is one registered engagement. The scheduler owns an entry's phase
// and result on its Run goroutine; the store lock guards membership in the
// wake queue and the live counter.
type entry struct {
	eng *dsnaudit.Engagement
	seq uint64 // global registration order: the deterministic total order

	phase   phase
	result  dsnaudit.Result
	retries int // consecutive overload refusals on the open challenge

	// Durability bookkeeping. baseRounds is how many rounds the contract had
	// already settled when this entry registered — the floor below which
	// recovery must not re-observe history. parkedRound/parkedHeight mirror
	// the last parked journal record so checkpoints can restore a parked
	// entry without touching its contract.
	baseRounds   int
	parkedRound  int
	parkedHeight uint64
}

// store holds the registered engagements: entry lookup, the global sequence
// counter, the wake queue and the aggregate counters, all behind one lock.
type store struct {
	mu        sync.Mutex
	byID      map[chain.Address]*entry
	queue     *wakeQueue[*entry]
	seq       uint64
	live      int // entries not yet terminal
	settling  int // entries owned by the settlement stage
	compacted uint64
	settled   uint64 // rounds settled, cumulative
	slashes   uint64 // of those, failed rounds and missed deadlines
}

func newStore() *store {
	return &store{
		byID:  make(map[chain.Address]*entry),
		queue: newWakeQueue[*entry](),
	}
}

// add registers an engagement, assigns its sequence number, and returns the
// new entry. The caller arms it.
func (s *store) add(e *dsnaudit.Engagement) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[e.ID()]; ok {
		return nil, fmt.Errorf("%w: %s", dsnaudit.ErrAlreadyScheduled, e.ID())
	}
	en := &entry{
		eng:    e,
		seq:    s.seq,
		result: dsnaudit.Result{State: e.Contract.State()},
	}
	s.seq++
	s.byID[e.ID()] = en
	s.live++
	return en, nil
}

// arm files an entry in the wake queue at height h.
func (s *store) arm(h uint64, en *entry) {
	s.mu.Lock()
	s.queue.Arm(h, en)
	s.mu.Unlock()
}

// popDue pops every entry due at height h, unsorted. The scheduler sorts by
// seq before acting.
func (s *store) popDue(h uint64) []*entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.PopDue(h)
}

// queued returns the number of armed entries.
func (s *store) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len()
}

// counts returns the live and settling totals, maintained incrementally so
// the completion check is O(1) instead of a full scan.
func (s *store) counts() (live, settling int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live, s.settling
}
