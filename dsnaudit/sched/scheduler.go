package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/obs"
)

// Scheduler drives any number of engagements concurrently on one chain. It
// is the block clock of the simulation: each tick mines one block, and every
// registered engagement whose trigger height is reached at that block is
// woken.
//
// The CPU-heavy work runs as a two-stage pipeline. Stage one is the proof
// pool: the tick's due challenges fan out to prove workers. A worker that
// receives a proof also runs the verifier's per-item step over it
// (core.PrepareProof: decoding, challenge expansion, zeta and the tag
// hashes), and the proof lands on its contract cheaply (SubmitProof,
// calldata gas only) with that step attached (AttachPrepared). Stage two is
// the settlement stage: once the tick's proofs are sealed into a block, the
// block is handed to a dedicated settlement goroutine, which produces the
// phase-2 verdicts through the Verifier (by default one batched check
// sharing a single final exponentiation, of which only the weights, the
// sums and the pairing are left) while the main loop is already mining the
// next tick and generating its proofs. A run whose verifier reads no proof
// (the soak's) prepares nothing.
//
// The overlap never changes behavior. Settlement is pinned to the sealed
// block's height, so audit triggers arm exactly as they would inline;
// verdicts are recorded only at fixed join points of the main loop, so which
// engagements a tick wakes never depends on how fast the settlement stage
// ran; and the settle block is ordered by registration, not by which prove
// worker finished first, so verdicts, journal records and outcome hooks land
// in one order at any worker count. Contract state stays single-writer: the
// main loop owns a contract from wake through proof submission, the
// settlement stage owns it for the verdict, and it returns at the join.
//
// The Scheduler is the one driver of audit rounds. It is the chain's block
// clock, so nothing else may mine a chain while a Run drives it.
//
// Per-tick cost is proportional to the engagements due at that tick:
//
//   - Engagements sit in one height-indexed wake queue, so a tick pops
//     exactly the due entries (O(due + log heights)) instead of scanning
//     every registration.
//   - Aggregate live/settling counts are maintained incrementally, so the
//     completion check is O(1).
//   - Terminal entries can be compacted on demand (Compact), so a
//     long-lived scheduler's memory tracks live engagements, not history.
//   - A provider that refuses a challenge with dsnaudit.ErrOverloaded is
//     retried after its hinted backoff, up to maxOverloadRetries times,
//     instead of being parked into a missed deadline: backpressure from
//     the party that knows its load is not slashable.
//
// Determinism comes from a global total order: every entry carries its
// registration sequence number, a tick's pop is sorted by it before any
// contract is touched, and all contract-state transitions happen
// sequentially on the Run goroutine in that order.
type Scheduler struct {
	net         *dsnaudit.Network
	workers     int // stage-1 proof-generation pool size
	parallelism int // stage-2 settlement verification workers
	verifier    dsnaudit.Verifier
	// autoCompact drops every terminal entry the moment its outcome hooks
	// have run, so Results/Result stop reporting it. Only the soak harness
	// sets it, to keep memory proportional to live engagements.
	autoCompact bool

	store *store

	// Durability (nil journal = volatile scheduler, the default). The
	// journal and the checkpoint and synced-flush cadences are fixed before
	// Run; lastWake, ckptTicks and jflushTicks are owned by the Run
	// goroutine; resume is set by Recover before Run starts.
	journal     *Journal
	ckptEvery   int // checkpoint cadence in ticks; <= 0 disables
	ckptTicks   int
	jflushEvery int // synced-flush cadence in ticks
	jflushTicks int
	resume      bool
	lastWake    uint64

	// Observability (nil = off, the default). metricsReg is consumed at
	// the end of NewScheduler, once options have fixed the journal.
	metricsReg *obs.Registry
	obs        *schedObs
	tracer     *obs.Tracer

	mu           sync.Mutex
	running      bool
	stats        Stats
	outcomeHooks []func(dsnaudit.Outcome)
	blockHooks   []func(uint64)
}

// Stats is the scheduler's cumulative operational accounting.
type Stats struct {
	Ticks      uint64 // blocks mined by Run
	Woken      uint64 // entries popped from wake queues
	Challenges uint64 // challenges issued
	Deferrals  uint64 // always 0 (admission deferral was removed); kept because bench/ compiles against it
	Retries    uint64 // overloaded challenges re-dispatched
	Overloads  uint64 // ErrOverloaded refusals observed
	Compacted  uint64 // terminal entries dropped
	Queued     int    // entries currently armed in wake queues
	Live       int    // entries not yet terminal

	Proofs        uint64 // proofs received and submitted
	SettledRounds uint64 // rounds settled (verdicts and missed deadlines)
	Slashes       uint64 // failed rounds and missed deadlines
}

// maxOverloadRetries is how many consecutive ErrOverloaded refusals of one
// challenge the scheduler absorbs, re-asking after each hinted backoff,
// before it treats the provider as absent and parks the engagement on the
// proof-deadline path.
const maxOverloadRetries = 16

// Option customizes NewScheduler.
type Option func(*Scheduler)

// WithShards is ignored (the scheduler has one wake queue); kept because
// bench/ compiles against it.
func WithShards(int) Option {
	return func(*Scheduler) {}
}

// WithWorkers sets the stage-1 proof-generation pool size alone.
func WithWorkers(n int) Option {
	return func(s *Scheduler) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithParallelism bounds the whole pipeline to n-way parallelism: n
// proof-generation workers in stage one and n verification goroutines inside
// each stage-2 settlement. The default is GOMAXPROCS. Engagement outcomes are
// identical for every n; only wall clock changes.
func WithParallelism(n int) Option {
	return func(s *Scheduler) {
		if n > 0 {
			s.workers = n
			s.parallelism = n
		}
	}
}

// WithVerifier overrides the settlement strategy (default: a fresh
// dsnaudit.BatchVerifier).
func WithVerifier(v dsnaudit.Verifier) Option {
	return func(s *Scheduler) {
		if v != nil {
			s.verifier = v
		}
	}
}

// WithJournal makes the scheduler durable: what recovery cannot re-derive
// from the contracts — registrations, parked marks, settled rounds, terminal
// outcomes, tick marks — is appended to j, and periodic checkpoints (see
// WithCheckpointEvery) bound what a restart must replay. Appends coalesce in
// the journal's one buffer and reach its one file, journal.log, in one write
// at each durability barrier — wherever something becoming externally visible
// depends on them: at the top of a tick before it issues challenges (with an
// fsync; see WithJournalFlushEvery), before a settled block is handed to the
// settlement stage, before a checkpoint captures journal offsets, and at
// clean shutdown. Registrations write through immediately — the scheduler
// never acts on an engagement whose registration is not on disk. The
// scheduler owns the journal from here on; open it with OpenJournal, Close it
// after Run returns, and recover a crashed scheduler's state with Recover,
// which installs the reopened journal itself. The journal's first I/O failure
// is sticky and stops the run where a crash would — a durable scheduler that
// cannot write its journal must stop, not continue volatile.
func WithJournal(j *Journal) Option {
	return func(s *Scheduler) {
		if j != nil {
			s.journal = j
		}
	}
}

// WithJournalFlushEvery sets how many ticks elapse between the tick-top
// barriers that flush and fsync the journal (default 1: every tick). A larger
// n trades a bounded machine-crash loss window — the records of at most n
// ticks, absorbed by Recover's reconciliation — for fewer fsyncs. n <= 0
// keeps the default.
func WithJournalFlushEvery(n int) Option {
	return func(s *Scheduler) {
		if n > 0 {
			s.jflushEvery = n
		}
	}
}

// WithCheckpointEvery sets how many ticks elapse between checkpoints
// (default 64). Checkpoints cap replay cost at recovery; the journal alone
// is always sufficient. n <= 0 disables checkpointing.
func WithCheckpointEvery(n int) Option {
	return func(s *Scheduler) { s.ckptEvery = n }
}

// NewScheduler creates a scheduler over the network's chain. The defaults —
// batched verification, GOMAXPROCS-way parallelism, no journal — are the
// plain in-memory driver; WithJournal adds durability without changing
// outcomes.
func NewScheduler(n *dsnaudit.Network, opts ...Option) *Scheduler {
	s := &Scheduler{
		net:         n,
		store:       newStore(),
		workers:     runtime.GOMAXPROCS(0),
		parallelism: runtime.GOMAXPROCS(0),
		verifier:    &dsnaudit.BatchVerifier{},
		ckptEvery:   64,
		jflushEvery: 1,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.instrument(s.metricsReg)
	return s
}

// Add registers an engagement and arms it at the height it next acts:
// its audit trigger, or the next tick for contracts adopted mid-round.
// Engagements may be added before Run or while it executes (outcome hooks
// re-enter Add to register follow-ups). A contract already in a terminal
// state is rejected with ErrContractClosed, a duplicate ID with
// ErrAlreadyScheduled.
func (s *Scheduler) Add(e *dsnaudit.Engagement) error {
	if e.Contract.State().Terminal() {
		return fmt.Errorf("%w: %s (%s)", dsnaudit.ErrContractClosed, e.ID(), e.Contract.State())
	}
	en, err := s.store.add(e)
	if err != nil {
		return err
	}
	// baseRounds pins where this registration's accounting starts: rounds
	// the contract settled before adoption are history, not ours — recovery
	// must neither re-observe them into reputation nor count them.
	en.baseRounds = len(e.Contract.Records())
	if s.journal != nil {
		if err := s.journal.append(journalRecord{
			typ:        recRegister,
			addr:       e.ID(),
			seq:        en.seq,
			baseRounds: en.baseRounds,
		}); err != nil {
			return err
		}
	}
	if e.Contract.State() == contract.StateAudit {
		s.store.arm(e.Contract.TriggerHeight(), en)
	} else {
		// Adopted mid-round (PROVE/SETTLE) or in a pre-audit state: due at
		// the very next tick.
		s.store.arm(0, en)
	}
	return nil
}

// AddSet registers every engagement of a set.
func (s *Scheduler) AddSet(set *dsnaudit.EngagementSet) error {
	for _, e := range set.Engagements {
		if err := s.Add(e); err != nil {
			return err
		}
	}
	return nil
}

// OnOutcome registers fn to be called for every engagement that reaches a
// terminal state (expired, aborted, or errored out). Hooks run synchronously
// on the Run goroutine, immediately after the outcome is recorded and with
// no scheduler lock held, so a hook may call Add to register follow-up
// engagements — that is how the repair subsystem re-engages a reconstructed
// share. Within one tick outcomes are delivered in registration order.
// Register hooks before Run starts; outcomes are not replayed for late
// hooks.
func (s *Scheduler) OnOutcome(fn func(dsnaudit.Outcome)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outcomeHooks = append(s.outcomeHooks, fn)
}

// OnBlock registers fn to be called once per tick, after the block is mined
// and before engagements are woken for that height, on the Run
// goroutine with no lock held: what a hook does to the world (kill a
// provider, add an engagement) is visible to the same tick's wake, giving
// experiments a deterministic injection point for churn pinned to heights.
func (s *Scheduler) OnBlock(fn func(uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blockHooks = append(s.blockHooks, fn)
}

// Results snapshots every non-compacted engagement's accounting.
func (s *Scheduler) Results() map[chain.Address]dsnaudit.Result {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	out := make(map[chain.Address]dsnaudit.Result, len(s.store.byID))
	for id, en := range s.store.byID {
		out[id] = en.result
	}
	return out
}

// Compact drops every terminal entry from the registries and returns how
// many were dropped.
func (s *Scheduler) Compact() int {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	dropped := 0
	for id, en := range s.store.byID {
		if en.phase == phaseDone {
			delete(s.store.byID, id)
			dropped++
		}
	}
	s.store.compacted += uint64(dropped)
	return dropped
}

// Stats snapshots the scheduler's cumulative counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	s.store.mu.Lock()
	st.Queued = s.store.queue.Len()
	st.Compacted = s.store.compacted
	st.Live = s.store.live
	st.SettledRounds = s.store.settled
	st.Slashes = s.store.slashes
	s.store.mu.Unlock()
	return st
}

// jappend writes one record to the journal, if any. A failure is latched by
// the journal, and the pipeline stops at its next journalFault check
// (callers on the hot path cannot usefully unwind mid-pipeline).
func (s *Scheduler) jappend(r journalRecord) {
	if s.journal != nil {
		s.journal.append(r)
	}
}

// journalFault returns the journal's latched I/O failure, if any. The
// pipeline checks it after any step that can append: once the journal has
// failed no further externally-visible effect (challenge, proof, settlement)
// may happen, because a crash at the failed write would have stopped them too.
func (s *Scheduler) journalFault() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.fault()
}

// jbarrier flushes the journal's buffers at a durability barrier. sync adds
// the fsync that bounds the machine-crash loss window.
func (s *Scheduler) jbarrier(sync bool) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.barrier(sync)
}

// jtickFlush is the tick-top barrier: every jflushEvery ticks the buffers of
// the elapsed ticks are written and fsynced before this tick issues any
// challenge.
func (s *Scheduler) jtickFlush() error {
	if s.journal == nil {
		return nil
	}
	s.jflushTicks++
	if s.jflushTicks < s.jflushEvery {
		return nil
	}
	s.jflushTicks = 0
	return s.jbarrier(true)
}

// Journal returns the scheduler's journal, or nil for a volatile scheduler.
func (s *Scheduler) Journal() *Journal { return s.journal }

// proofJob is one due challenge. slot is the position wakeAt reserved for
// its proof in the tick's settle block.
type proofJob struct {
	entry *entry
	ch    *core.Challenge
	slot  int
}

type proofResult struct {
	entry *entry
	proof []byte
	prep  *core.PreparedProof // the proof's per-item verification step, if made
	err   error
	slot  int
}

type settleJob struct {
	entries []*entry
	cs      []*contract.Contract
	height  uint64
}

type settleOutcome struct {
	entries []*entry
	cs      []*contract.Contract
	results []contract.SettleResult
	height  uint64
	err     error
}

// Run executes the block loop until every registered engagement reaches a
// terminal state or ctx is canceled. On cancellation it drains in-flight
// proof jobs (responders see the canceled ctx) and joins any in-flight
// settlement — verdicts already computed are recorded, never dropped —
// before returning ctx.Err(); contracts mid-round stay in PROVE or SETTLE
// and a later Run resumes them. A second concurrent Run returns
// ErrSchedulerRunning.
func (s *Scheduler) Run(ctx context.Context) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return dsnaudit.ErrSchedulerRunning
	}
	s.running = true
	s.mu.Unlock()
	resume := s.resume
	s.resume = false
	defer func() {
		// Entries interrupted mid-round keep an open challenge (PROVE) or a
		// pending proof (SETTLE) on the contract; re-arm them so a later Run
		// adopts and resumes them at its first tick.
		var rearm []*entry
		s.store.mu.Lock()
		for _, en := range s.store.byID {
			if en.phase == phaseProving || en.phase == phaseSettling {
				en.phase = phaseWaiting
				rearm = append(rearm, en)
			}
		}
		s.store.mu.Unlock()
		for _, en := range rearm {
			s.store.arm(0, en)
		}
		s.mu.Lock()
		s.running = false
		s.mu.Unlock()
	}()

	// Stage 1: the proof-generation pool. A worker that receives a proof
	// also runs the verifier's per-item step over it, unless the verifier
	// reads no proof.
	_, trusting := s.verifier.(trustingVerifier)
	jobs := make(chan proofJob)
	results := make(chan proofResult)
	var proveWG sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		proveWG.Add(1)
		go func() {
			defer proveWG.Done()
			for job := range jobs {
				c := job.entry.eng.Contract
				proof, err := job.entry.eng.Responder.Respond(ctx, c.Addr, job.ch)
				var prep *core.PreparedProof
				if err == nil && !trusting {
					prep = s.prepare(c, job.ch, proof)
				}
				results <- proofResult{entry: job.entry, proof: proof, prep: prep, err: err, slot: job.slot}
			}
		}()
	}
	defer func() {
		close(jobs)
		proveWG.Wait()
	}()

	// Stage 2: the settlement stage; at most one block in flight.
	settleJobs := make(chan settleJob, 1)
	settleOutcomes := make(chan settleOutcome, 1)
	var settleWG sync.WaitGroup
	settleWG.Add(1)
	go func() {
		defer settleWG.Done()
		for job := range settleJobs {
			res, err := s.verifier.SettleBlock(job.cs, job.height, s.parallelism)
			settleOutcomes <- settleOutcome{entries: job.entries, cs: job.cs, results: res, height: job.height, err: err}
		}
	}()
	defer func() {
		close(settleJobs)
		settleWG.Wait()
	}()

	outstanding := false
	joinSettle := func() error {
		if !outstanding {
			return nil
		}
		outstanding = false
		return s.recordSettlement(<-settleOutcomes)
	}
	// handOff queues a sealed block for the settlement stage, pinned at the
	// height that sealed it.
	handOff := func(block []*entry, sealed uint64) error {
		// The settlement barrier: the previous block's settled records and
		// every parked mark so far are written out before the settlement
		// stage can move this block's funds, so the window recovery must
		// reconcile is one block.
		if err := s.jbarrier(false); err != nil {
			return err
		}
		s.store.mu.Lock()
		for _, en := range block {
			en.phase = phaseSettling
		}
		s.store.settling += len(block)
		s.store.mu.Unlock()
		cs := make([]*contract.Contract, len(block))
		for i, en := range block {
			cs[i] = en.eng.Contract
		}
		settleJobs <- settleJob{entries: block, cs: cs, height: sealed}
		outstanding = true
		return nil
	}

	for {
		if err := s.journalFault(); err != nil {
			joinSettle()
			return err
		}
		live, settling := s.store.counts()
		if live == 0 {
			if err := joinSettle(); err != nil {
				return err
			}
			// An outcome hook may have registered follow-up engagements on
			// the way here; keep driving instead of stranding them.
			if live, _ = s.store.counts(); live > 0 {
				continue
			}
			// Flush and sync the run's journal tail before the final mines:
			// a clean completion leaves nothing buffered.
			if err := s.jbarrier(true); err != nil {
				return err
			}
			for s.net.Chain.PendingCount() > 0 {
				s.net.Chain.MineBlock()
			}
			return nil
		}
		if live == settling {
			// Every live engagement awaits its verdict; join rather than
			// mine idle blocks. Deterministic: depends only on the counts.
			if err := joinSettle(); err != nil {
				return err
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			if joinErr := joinSettle(); joinErr != nil {
				return joinErr
			}
			return err
		}

		// One tick = one block, mined here. A recovered scheduler's first
		// tick is the exception: the crashed run already mined the block for
		// the wake height it died at, so the resume tick re-processes that
		// height without mining — mining again would shift every later
		// trigger by one block relative to an uninterrupted run. The tick
		// mark is written through before the block is mined, so a run that
		// dies on the mark's write has not mined it either.
		resumeTick := resume
		resume = false
		height := s.lastWake
		if !resumeTick {
			height = s.net.Chain.Height() + 1
		}
		s.lastWake = height
		s.jappend(journalRecord{typ: recTick, height: height})
		if err := s.journalFault(); err != nil {
			return err
		}
		s.mu.Lock()
		s.stats.Ticks++
		blockHooks := append([]func(uint64){}, s.blockHooks...)
		s.mu.Unlock()
		if !resumeTick {
			s.net.Chain.MineBlock()
			// The crashed run already delivered a resumed height to its hooks.
			for _, fn := range blockHooks {
				fn(height)
			}
		}
		if err := s.jtickFlush(); err != nil {
			return err
		}

		due, block, adopted := s.wakeAt(height)
		if err := s.journalFault(); err != nil {
			return err
		}
		if resumeTick && adopted > 0 && s.net.Chain.Height() == height && s.net.Chain.PendingCount() == 0 {
			// The crashed run mined this tick's block and no proof is
			// pending, so the adopted proofs were sealed by the block before
			// it and died on their way to settlement: settle them there, as
			// the block they were, before this tick proves anything.
			var sealed []*entry
			for i, en := range block {
				if en != nil {
					sealed, block[i] = append(sealed, en), nil
				}
			}
			if err := handOff(sealed, height-1); err != nil {
				return err
			}
			adopted = 0
		}

		// Fan the due proofs out; drain results as they land, each into the
		// slot wakeAt reserved for it, so the settle block keeps registration
		// order however the workers interleave. The previous tick's
		// settlement may still be verifying — that is the overlap.
		inflight := 0
		aborted := false
		var dead error // a journal failure mid-tick
		ctxDone := ctx.Done()
		for len(due) > 0 || inflight > 0 {
			var jobCh chan proofJob
			var next proofJob
			if len(due) > 0 && !aborted && dead == nil {
				jobCh = jobs
				next = due[0]
			}
			select {
			case jobCh <- next:
				due = due[1:]
				inflight++
			case r := <-results:
				inflight--
				if !aborted && dead == nil && s.submit(ctx, height, r) {
					block[r.slot] = r.entry
				}
				if dead == nil {
					// A journal write inside this result's parked append
					// failed: stop dispatching, drain like a crash.
					dead = s.journalFault()
				}
				if dead != nil {
					due = nil
				}
			case <-ctxDone:
				aborted = true
				due = nil
				ctxDone = nil
			}
		}
		// Close the slots of proofs that never landed (parked, retried,
		// errored, or discarded by a journal failure or cancellation).
		sealed := block[:0]
		for _, en := range block {
			if en != nil {
				sealed = append(sealed, en)
			}
		}
		block = sealed
		s.mu.Lock()
		s.stats.Proofs += uint64(len(block) - adopted)
		s.mu.Unlock()
		if dead != nil {
			return dead
		}
		if err := joinSettle(); err != nil {
			return err
		}
		if aborted {
			return ctx.Err()
		}
		if len(block) > adopted || (resumeTick && adopted > 0 && s.net.Chain.PendingCount() > 0) {
			// Seal the newly submitted proofs before their verdicts land. On
			// a resume tick the proofs may all predate the crash — adopted,
			// with their transactions still pending — and need the same seal
			// the crashed run would have given them.
			s.net.Chain.MineBlock()
		}
		if len(block) > 0 {
			if err := handOff(block, s.net.Chain.Height()); err != nil {
				return err
			}
		}
		if s.journal != nil && s.ckptEvery > 0 {
			s.ckptTicks++
			if s.ckptTicks >= s.ckptEvery {
				s.ckptTicks = 0
				start := time.Now()
				if err := s.writeCheckpoint(); err != nil {
					return err
				}
				if s.obs != nil {
					s.obs.ckptDur.ObserveDuration(time.Since(start))
				}
			}
		}
	}
}

// wakeAt pops the entries due at height h, sorts them by global sequence
// number (arm order is not registration order), and applies each entry's
// phase action in that registration order. It returns the proof jobs to
// dispatch and the tick's settle block: entries adopted with a proof already
// pending sit in their slots (adopted counts them), and each proof job holds
// a nil slot its proof fills when it lands.
func (s *Scheduler) wakeAt(h uint64) (due []proofJob, block []*entry, adopted int) {
	popped := s.store.popDue(h)
	sort.Slice(popped, func(i, j int) bool { return popped[i].seq < popped[j].seq })

	var challenges, retries uint64
	dispatch := func(en *entry, ch *core.Challenge) {
		due = append(due, proofJob{entry: en, ch: ch, slot: len(block)})
		block = append(block, nil)
	}
	defer func() {
		s.mu.Lock()
		s.stats.Woken += uint64(len(popped))
		s.stats.Challenges += challenges
		s.stats.Retries += retries
		s.mu.Unlock()
		s.obsTick(len(popped))
	}()

	for _, en := range popped {
		if s.journalFault() != nil {
			// A journal write inside a previous entry's append failed: no
			// further challenge may be issued. The remaining popped entries
			// are dropped un-rearmed — recovery re-arms them from disk.
			break
		}
		e := en.eng
		switch en.phase {
		case phaseWaiting:
			switch e.Contract.State() {
			case contract.StateAudit:
				if e.Contract.TriggerHeight() > h {
					// Armed early (an Add racing a tick): wait it out.
					s.store.arm(e.Contract.TriggerHeight(), en)
					continue
				}
				ch, err := e.Contract.IssueChallenge()
				if err != nil {
					s.finish(en, err)
					continue
				}
				if ch == nil {
					// Trigger fired with no rounds left: contract expired.
					s.finish(en, nil)
					continue
				}
				challenges++
				s.setPhase(en, phaseProving)
				s.tracer.Emit(obs.EvChallenge, string(e.ID()), e.Contract.Round(), h, "")
				dispatch(en, ch)
			case contract.StateProve:
				// Adopted mid-round: resume the open challenge.
				s.setPhase(en, phaseProving)
				dispatch(en, e.Contract.CurrentChallenge())
			case contract.StateSettle:
				// Adopted with a proof pending: settle it this tick.
				s.setPhase(en, phaseProving)
				block = append(block, en)
				adopted++
			default:
				s.finish(en, nil)
			}
		case phaseDeadline:
			if e.Contract.TriggerHeight() > h {
				s.store.arm(e.Contract.TriggerHeight(), en)
				continue
			}
			if err := e.SettleMissedDeadline(); err != nil {
				s.finish(en, err)
				continue
			}
			s.recordRound(en, false)
			s.jappend(journalRecord{
				typ:      recSettled,
				addr:     e.ID(),
				round:    e.Contract.Round() - 1,
				deadline: true,
			})
			s.tracer.Emit(obs.EvSettled, string(e.ID()), e.Contract.Round()-1, h, "deadline")
			s.tracer.Emit(obs.EvSlashed, string(e.ID()), e.Contract.Round()-1, h, "missed deadline")
			s.finish(en, nil) // a missed deadline aborts the contract
		case phaseRetry:
			// The provider refused the open challenge with ErrOverloaded and
			// the backoff has elapsed: re-ask.
			retries++
			s.setPhase(en, phaseProving)
			dispatch(en, e.Contract.CurrentChallenge())
		}
	}
	return due, block, adopted
}

// submit lands one proof result (phase 1, calldata only) and reports
// whether the entry joined the block awaiting settlement. Failures map to
// three distinct paths: cancellation leaves the entry for the resume
// machinery; an overload refusal re-arms at the provider's hinted backoff
// (at most maxOverloadRetries times) with the challenge still open; any other
// responder error parks the entry until the proof deadline slashes.
func (s *Scheduler) submit(ctx context.Context, h uint64, r proofResult) bool {
	en, e := r.entry, r.entry.eng
	if r.err != nil {
		if ctx.Err() != nil {
			return false
		}
		if errors.Is(r.err, dsnaudit.ErrOverloaded) {
			s.mu.Lock()
			s.stats.Overloads++
			s.mu.Unlock()
			en.retries++
			if en.retries > maxOverloadRetries {
				// Persistently saturated is indistinguishable from absent:
				// fall through to the deadline path like any failed round.
				s.park(en, parkDeadline, e.Contract.TriggerHeight())
				return false
			}
			back := dsnaudit.RetryAfterHint(r.err)
			if back < 1 {
				back = 1
			}
			s.park(en, parkRetry, h+uint64(back))
			return false
		}
		s.park(en, parkDeadline, e.Contract.TriggerHeight())
		return false
	}
	en.retries = 0
	if err := e.Contract.SubmitProof(e.Provider.Address(), r.proof); err != nil {
		s.finish(en, err)
		return false
	}
	e.Contract.AttachPrepared(r.prep)
	s.tracer.Emit(obs.EvProof, string(e.ID()), e.Contract.Round(), h, "")
	return true
}

// prepare runs the per-item step of verifying a proof that just arrived
// (core.PrepareProof) on the prove worker that received it, reading only the
// contract's fixed terms. A proof that fails to decode gets no item: nothing
// is refused at submission, and settlement slashes it from its own bytes.
func (s *Scheduler) prepare(c *contract.Contract, ch *core.Challenge, proof []byte) *core.PreparedProof {
	start := time.Now()
	prep, err := core.PrepareProof(c.Terms.PublicKey, c.Terms.NumChunks, ch, proof)
	if s.obs != nil {
		s.obs.prepareDur.ObserveDuration(time.Since(start))
	}
	if err != nil {
		return nil
	}
	return prep
}

// park arms an entry at a future height on the deadline or retry path,
// journaling enough to restore the parked state — kind, round, wake height
// and retry count — across a crash.
func (s *Scheduler) park(en *entry, kind parkKind, h uint64) {
	e := en.eng
	if kind == parkDeadline {
		s.setPhase(en, phaseDeadline)
	} else {
		s.setPhase(en, phaseRetry)
	}
	en.parkedRound = e.Contract.Round()
	en.parkedHeight = h
	s.jappend(journalRecord{
		typ:     recParked,
		addr:    e.ID(),
		kind:    kind,
		round:   en.parkedRound,
		height:  h,
		retries: en.retries,
	})
	s.store.arm(h, en)
}

// recordSettlement lands one settled block's verdicts in the scheduler's
// accounting — payment, reputation, round counts — and re-arms each surviving
// entry at its next audit trigger. It runs on the main loop at the
// deterministic join points. The verifier must have returned exactly one
// result per contract, in input order: anything else would record one
// engagement's verdict against another, so it fails the run with
// ErrVerifierMismatch instead.
func (s *Scheduler) recordSettlement(out settleOutcome) error {
	s.store.mu.Lock()
	s.store.settling -= len(out.entries)
	s.store.mu.Unlock()
	if out.err != nil {
		return out.err
	}
	if len(out.results) != len(out.entries) {
		return fmt.Errorf("%w: %d results for %d contracts", dsnaudit.ErrVerifierMismatch, len(out.results), len(out.entries))
	}
	for i, res := range out.results {
		if res.Addr != out.cs[i].Addr {
			return fmt.Errorf("%w: result %d is for %s, want %s", dsnaudit.ErrVerifierMismatch, i, res.Addr, out.cs[i].Addr)
		}
	}
	for i, res := range out.results {
		if err := s.journalFault(); err != nil {
			// A journal write failed while recording an earlier verdict. The
			// rest of the block's verdicts are already on-chain with no
			// journal record — exactly the window Recover reconciles.
			return err
		}
		en, e := out.entries[i], out.entries[i].eng
		if res.Err != nil {
			s.finish(en, res.Err)
			continue
		}
		e.RecordSettledRound(res.Passed)
		s.recordRound(en, res.Passed)
		s.jappend(journalRecord{
			typ:    recSettled,
			addr:   e.ID(),
			round:  e.Contract.Round() - 1,
			passed: res.Passed,
		})
		if res.Passed {
			s.tracer.Emit(obs.EvSettled, string(e.ID()), e.Contract.Round()-1, out.height, "passed")
		} else {
			s.tracer.Emit(obs.EvSettled, string(e.ID()), e.Contract.Round()-1, out.height, "failed")
			s.tracer.Emit(obs.EvSlashed, string(e.ID()), e.Contract.Round()-1, out.height, "failed round")
		}
		if e.Contract.State().Terminal() {
			s.finish(en, nil)
			continue
		}
		s.store.mu.Lock()
		en.phase = phaseWaiting
		en.result.State = e.Contract.State()
		s.store.mu.Unlock()
		s.store.arm(e.Contract.TriggerHeight(), en)
	}
	return nil
}

// setPhase updates an entry's phase under the store lock (Compact and the
// accessors read phases concurrently).
func (s *Scheduler) setPhase(en *entry, p phase) {
	s.store.mu.Lock()
	old := en.phase
	en.phase = p
	s.store.mu.Unlock()
	s.obs.trackParked(old, p)
}

// recordRound counts one settled round — a verdict or a missed deadline —
// in the entry's pass/fail accounting and the scheduler's totals.
func (s *Scheduler) recordRound(en *entry, passed bool) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	en.result.Rounds++
	s.store.settled++
	if passed {
		en.result.Passed++
	} else {
		en.result.Failed++
		s.store.slashes++
	}
}

// finish marks an entry terminal, delivers the outcome to the hooks with no
// lock held, and (under autoCompact) drops the entry.
func (s *Scheduler) finish(en *entry, err error) {
	s.store.mu.Lock()
	oldPhase := en.phase
	en.phase = phaseDone
	en.result.State = en.eng.Contract.State()
	if err != nil {
		en.result.Err = err
	}
	s.store.live--
	if s.autoCompact {
		delete(s.store.byID, en.eng.ID())
		s.store.compacted++
	}
	out := dsnaudit.Outcome{ID: en.eng.ID(), Eng: en.eng, Result: en.result}
	s.store.mu.Unlock()
	s.obs.trackParked(oldPhase, phaseDone)
	rec := journalRecord{
		typ:    recTerminal,
		addr:   out.ID,
		state:  out.Result.State,
		rounds: out.Result.Rounds,
		passN:  out.Result.Passed,
		failN:  out.Result.Failed,
	}
	if out.Result.Err != nil {
		rec.errMsg = out.Result.Err.Error()
	}
	s.jappend(rec)
	s.mu.Lock()
	hooks := s.outcomeHooks
	s.mu.Unlock()
	for _, fn := range hooks {
		fn(out)
	}
}
