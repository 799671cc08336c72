package sched

import (
	"fmt"
	"hash/fnv"
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
// and result on its Run goroutine; the shard lock guards only membership in
// the wake queue and the live counter.
type entry struct {
	eng   *dsnaudit.Engagement
	seq   uint64 // global registration order: the deterministic total order
	shard int

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

// shardState is one shard: a wake queue plus a live-entry counter. Shards
// are popped concurrently on a tick — each goroutine takes only its own
// shard's lock — and the merged pop is then processed in seq order.
type shardState struct {
	mu    sync.Mutex
	queue *wakeQueue[*entry]
}

// store shards the registered engagements by contract address. Entry
// lookup, the global sequence counter, and the aggregate counters live
// behind the store lock; per-height indexing lives in the shards.
type store struct {
	shards []*shardState

	mu        sync.Mutex
	byID      map[chain.Address]*entry
	seq       uint64
	live      int // entries not yet terminal
	settling  int // entries owned by the settlement stage
	compacted uint64
	settled   uint64 // rounds settled, cumulative
	slashes   uint64 // of those, failed rounds and missed deadlines
}

func newStore(nshards int) *store {
	s := &store{
		shards: make([]*shardState, nshards),
		byID:   make(map[chain.Address]*entry),
	}
	for i := range s.shards {
		s.shards[i] = &shardState{queue: newWakeQueue[*entry]()}
	}
	return s
}

// shardOf assigns a contract address to a shard (FNV-1a). The assignment
// only spreads queue work; scheduling order never depends on it.
func (s *store) shardOf(addr chain.Address) int {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// add registers an engagement, assigns its sequence number and shard, and
// returns the new entry. The caller arms it.
func (s *store) add(e *dsnaudit.Engagement) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[e.ID()]; ok {
		return nil, fmt.Errorf("%w: %s", dsnaudit.ErrAlreadyScheduled, e.ID())
	}
	en := &entry{
		eng:    e,
		seq:    s.seq,
		shard:  s.shardOf(e.ID()),
		result: dsnaudit.Result{State: e.Contract.State()},
	}
	s.seq++
	s.byID[e.ID()] = en
	s.live++
	return en, nil
}

// arm files an entry in its shard's wake queue at height h.
func (s *store) arm(h uint64, en *entry) {
	sh := s.shards[en.shard]
	sh.mu.Lock()
	sh.queue.Arm(h, en)
	sh.mu.Unlock()
}

// popDue concurrently pops every shard's due entries at height h and
// returns them merged, unsorted. The scheduler sorts by seq before acting.
func (s *store) popDue(h uint64) []*entry {
	popped := make([][]*entry, len(s.shards))
	if len(s.shards) == 1 {
		sh := s.shards[0]
		sh.mu.Lock()
		popped[0] = sh.queue.PopDue(h)
		sh.mu.Unlock()
	} else {
		var wg sync.WaitGroup
		for i, sh := range s.shards {
			wg.Add(1)
			go func(i int, sh *shardState) {
				defer wg.Done()
				sh.mu.Lock()
				popped[i] = sh.queue.PopDue(h)
				sh.mu.Unlock()
			}(i, sh)
		}
		wg.Wait()
	}
	n := 0
	for _, p := range popped {
		n += len(p)
	}
	out := make([]*entry, 0, n)
	for _, p := range popped {
		out = append(out, p...)
	}
	return out
}

// queued returns the total number of armed entries across all shards.
func (s *store) queued() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.queue.Len()
		sh.mu.Unlock()
	}
	return n
}

// counts returns the live and settling totals, maintained incrementally so
// the completion check is O(1) instead of a full scan.
func (s *store) counts() (live, settling int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live, s.settling
}
