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
// pool: the tick's due challenges fan out to prove workers, and each proof
// that lands is recorded cheaply on its contract (SubmitProof, calldata gas
// only). Stage two is the settlement stage: once the tick's proofs are
// sealed into a block, the block is handed to a dedicated settlement
// goroutine, which produces the phase-2 verdicts through the Verifier (by
// default one batched check sharing a single final exponentiation) while
// the main loop is already mining the next tick and generating its proofs.
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
// The sequential Engagement.RunRound driver mines the chain itself and
// therefore must not run concurrently with a Scheduler on the same chain.
//
// Per-tick cost is proportional to the engagements due at that tick:
//
//   - Engagements are sharded by contract address; each shard keeps a
//     height-indexed wake queue, so a tick pops exactly the due entries
//     (O(due + log heights)) instead of scanning every registration.
//   - Aggregate live/settling counts are maintained incrementally, so the
//     completion check is O(1).
//   - Terminal entries can be compacted (automatically with
//     WithAutoCompact, or on demand with Compact), so a long-lived
//     scheduler's memory tracks live engagements, not history.
//   - Challenge admission is bounded per shard per tick
//     (WithMaxInflightPerShard): excess due engagements are deferred to the
//     next tick with no challenge issued and therefore no deadline running —
//     backpressure that is not slashable by construction. A provider that
//     refuses a challenge with dsnaudit.ErrOverloaded is likewise retried
//     after its hinted backoff instead of being parked into a missed
//     deadline.
//
// Determinism at any shard count comes from a global total order: every
// entry carries its registration sequence number, per-shard pops are merged
// and sorted by it before any contract is touched, and all contract-state
// transitions happen sequentially on the Run goroutine in that order. The
// shard structure parallelizes the bookkeeping, never the decision order.
type Scheduler struct {
	net         *dsnaudit.Network
	workers     int // stage-1 proof-generation pool size
	parallelism int // stage-2 settlement verification workers
	verifier    dsnaudit.Verifier
	maxInflight int // per-shard per-tick challenge admissions; 0 = unbounded
	maxRetries  int // consecutive overload refusals before the deadline path
	autoCompact bool

	store *store

	// Durability (nil journal = volatile scheduler, the default). The
	// journal, the checkpoint and synced-flush cadences and the crash hook
	// are fixed before Run; lastWake, ckptTicks and jflushTicks are owned by
	// the Run goroutine; resume is set by Recover before Run starts.
	journal     *Journal
	ckptEvery   int // checkpoint cadence in ticks; <= 0 disables
	ckptTicks   int
	jflushEvery int // synced-flush cadence in ticks
	jflushTicks int
	crashHook   func(CrashPoint) bool
	resume      bool
	lastWake    uint64

	// Observability (nil = off, the default). metricsReg is consumed at
	// the end of NewScheduler, once options have fixed shards and journal.
	metricsReg *obs.Registry
	obs        *schedObs
	tracer     *obs.Tracer

	mu           sync.Mutex
	running      bool
	journalErr   error // first journal append failure; sticky, fails the run
	stats        Stats
	outcomeHooks []func(dsnaudit.Outcome)
	blockHooks   []func(uint64)
}

// Stats is the scheduler's cumulative operational accounting.
type Stats struct {
	Ticks      uint64 // blocks mined by Run
	Woken      uint64 // entries popped from wake queues
	Challenges uint64 // challenges issued
	Deferrals  uint64 // challenges deferred by per-shard admission
	Retries    uint64 // overloaded challenges re-dispatched
	Overloads  uint64 // ErrOverloaded refusals observed
	Compacted  uint64 // terminal entries dropped
	Queued     int    // entries currently armed in wake queues
	Live       int    // entries not yet terminal

	Proofs        uint64 // proofs received and submitted
	SettledRounds uint64 // rounds settled (verdicts and missed deadlines)
	Slashes       uint64 // failed rounds and missed deadlines
}

// Option customizes NewScheduler.
type Option func(*Scheduler)

// WithShards sets the shard count (default 1). Shards spread the wake-queue
// work across goroutines; outcomes are identical at any count.
func WithShards(n int) Option {
	return func(s *Scheduler) {
		if n > 0 {
			s.store = newStore(n)
		}
	}
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

// WithMaxInflightPerShard bounds how many challenges each shard may issue
// per tick. A due engagement past the bound is deferred to the next tick:
// its challenge is never issued, so no proof deadline starts and the
// deferral cannot slash anyone — admission control, not punishment.
// Engagements adopted with a challenge already open are exempt (their
// deadline is already running; deferring them is what would slash).
// n <= 0 leaves admission unbounded (the default).
func WithMaxInflightPerShard(n int) Option {
	return func(s *Scheduler) { s.maxInflight = n }
}

// WithOverloadRetries sets how many consecutive ErrOverloaded refusals of
// one challenge the scheduler absorbs (re-asking after each hinted backoff)
// before treating the provider as absent and parking the engagement on the
// proof-deadline path. The default is 16; n <= 0 retries forever.
func WithOverloadRetries(n int) Option {
	return func(s *Scheduler) { s.maxRetries = n }
}

// WithAutoCompact drops every terminal entry the moment its outcome hooks
// have run, keeping a long-lived scheduler's memory proportional to live
// engagements. Results/Result stop reporting compacted engagements —
// terminal accounting is delivered through the outcome hooks, which fire
// before the entry is dropped.
func WithAutoCompact() Option {
	return func(s *Scheduler) { s.autoCompact = true }
}

// WithJournal makes the scheduler durable: what recovery cannot re-derive
// from the contracts — registrations, parked marks, settled rounds, terminal
// outcomes, tick marks — is appended to j, and periodic checkpoints (see
// WithCheckpointEvery) bound what a restart must replay. Appends coalesce in
// per-shard buffers and are written out, one write per shard, at each
// durability barrier — wherever something becoming externally visible
// depends on them: at the top of a tick before it issues challenges (with an
// fsync; see WithJournalFlushEvery), before a settled block is handed to the
// settlement stage, before a checkpoint captures journal offsets, and at
// clean shutdown. Registrations write through immediately — the scheduler
// never acts on an engagement whose registration is not on disk. The
// scheduler owns the journal from here on; open it with OpenJournal, Close it
// after Run returns, and recover a crashed scheduler's state with Recover,
// which installs the reopened journal itself. A journal append failure is
// sticky and fails the run — a durable scheduler that cannot write its
// journal must stop, not continue volatile.
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
// one shard, batched verification, GOMAXPROCS-way parallelism, no journal,
// unbounded admission — are the plain in-memory driver; options add shards,
// durability and backpressure without changing outcomes.
func NewScheduler(n *dsnaudit.Network, opts ...Option) *Scheduler {
	s := &Scheduler{
		net:         n,
		workers:     runtime.GOMAXPROCS(0),
		parallelism: runtime.GOMAXPROCS(0),
		verifier:    &dsnaudit.BatchVerifier{},
		maxRetries:  16,
		ckptEvery:   64,
		jflushEvery: 1,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.store == nil {
		s.store = newStore(1)
	}
	if s.journal != nil {
		s.journal.crashHook = s.crashHook
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
			s.mu.Lock()
			if s.journalErr == nil {
				s.journalErr = err
			}
			s.mu.Unlock()
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

// Result returns the accounting for one engagement. Compacted engagements
// are no longer reported.
func (s *Scheduler) Result(id chain.Address) (dsnaudit.Result, bool) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	en, ok := s.store.byID[id]
	if !ok {
		return dsnaudit.Result{}, false
	}
	return en.result, true
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
// many were dropped. With WithAutoCompact this is a no-op.
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
	st.Queued = s.store.queued()
	s.store.mu.Lock()
	st.Compacted = s.store.compacted
	st.Live = s.store.live
	st.SettledRounds = s.store.settled
	st.Slashes = s.store.slashes
	s.store.mu.Unlock()
	return st
}

// jappend writes one record to the journal, if any. Append failures are
// sticky: the first one is latched and fails the run at the next tick
// boundary (callers on the hot path cannot usefully unwind mid-pipeline).
func (s *Scheduler) jappend(r journalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(r); err != nil {
		s.mu.Lock()
		if s.journalErr == nil {
			s.journalErr = err
		}
		s.mu.Unlock()
	}
}

// journalFault returns the latched journal append failure, if any.
func (s *Scheduler) journalFault() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalErr
}

// journalDead reports whether an injected crash killed the journal. The
// pipeline checks it after any step that can append: once the journal is
// dead no further externally-visible effect (challenge, proof, settlement)
// may happen, because a real crash would have stopped them too.
func (s *Scheduler) journalDead() bool {
	return s.journal != nil && s.journal.crashed()
}

// jbarrier flushes the journal's buffers at a durability barrier. sync adds
// the fsync that bounds the machine-crash loss window. The error is
// ErrCrashed when the crash hook fired at the flush, or the underlying I/O
// failure — either way the run must stop.
func (s *Scheduler) jbarrier(sync bool) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.barrier(sync, CrashBarrierFlush)
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

	// Stage 1: the proof-generation pool.
	jobs := make(chan proofJob)
	results := make(chan proofResult)
	var proveWG sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		proveWG.Add(1)
		go func() {
			defer proveWG.Done()
			for job := range jobs {
				proof, err := job.entry.eng.Responder.Respond(ctx, job.entry.eng.Contract.Addr, job.ch)
				results <- proofResult{entry: job.entry, proof: proof, err: err, slot: job.slot}
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
		out := <-settleOutcomes
		if s.crashAt(CrashPostSettle) {
			// The settlement stage already applied this block's verdicts
			// on-chain; dying here loses only the journal records for them —
			// the reconciliation window Recover absorbs.
			return ErrCrashed
		}
		return s.recordSettlement(out)
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
		// trigger by one block relative to an uninterrupted run.
		resumeTick := resume
		resume = false
		height := s.lastWake
		if !resumeTick {
			height = s.net.Chain.MineBlock().Number
		}
		s.mu.Lock()
		s.stats.Ticks++
		blockHooks := append([]func(uint64){}, s.blockHooks...)
		s.mu.Unlock()
		if !resumeTick {
			// The crashed run already delivered this height to its hooks.
			for _, fn := range blockHooks {
				fn(height)
			}
		}
		s.lastWake = height
		s.jappend(journalRecord{typ: recTick, height: height})
		if err := s.jtickFlush(); err != nil {
			return err
		}
		if s.crashAt(CrashPreIssue) {
			return ErrCrashed
		}

		due, block, adopted := s.wakeAt(height)
		if s.crashAt(CrashPostIssue) || s.journalDead() {
			return ErrCrashed
		}

		// Fan the due proofs out; drain results as they land, each into the
		// slot wakeAt reserved for it, so the settle block keeps registration
		// order however the workers interleave. The previous tick's
		// settlement may still be verifying — that is the overlap.
		inflight := 0
		aborted := false
		crashed := false
		ctxDone := ctx.Done()
		for len(due) > 0 || inflight > 0 {
			var jobCh chan proofJob
			var next proofJob
			if len(due) > 0 && !aborted && !crashed {
				jobCh = jobs
				next = due[0]
			}
			select {
			case jobCh <- next:
				due = due[1:]
				inflight++
			case r := <-results:
				inflight--
				if !aborted && !crashed && s.submit(ctx, height, r) {
					block[r.slot] = r.entry
					if s.crashAt(CrashMidProve) {
						// Die with this proof on-chain and the rest of the
						// tick never submitted; in-flight results drain and
						// are discarded, like any crash would discard them.
						crashed = true
						due = nil
					}
				}
				if !crashed && s.journalDead() {
					// A buffer-full flush inside this result's parked append
					// crashed: stop dispatching, drain like MidProve.
					crashed = true
					due = nil
				}
			case <-ctxDone:
				aborted = true
				due = nil
				ctxDone = nil
			}
		}
		// Close the slots of proofs that never landed (parked, retried,
		// errored, or discarded by a crash or cancellation).
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
		if crashed {
			return ErrCrashed
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
			if s.crashAt(CrashPreSettle) {
				return ErrCrashed
			}
			// The settlement barrier: the previous block's settled records
			// and every parked mark so far are written out before the
			// settlement stage can move this block's funds, so the window
			// recovery must reconcile is one block.
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
			settleJobs <- settleJob{entries: block, cs: cs, height: s.net.Chain.Height()}
			outstanding = true
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

// wakeAt pops every shard's due entries at height h (concurrently, one
// goroutine per shard), merges them, sorts by global sequence number, and
// applies each entry's phase action in that registration order. It returns
// the proof jobs to dispatch and the tick's settle block: entries adopted
// with a proof already pending sit in their slots (adopted counts them), and
// each proof job holds a nil slot its proof fills when it lands.
func (s *Scheduler) wakeAt(h uint64) (due []proofJob, block []*entry, adopted int) {
	popped := s.store.popDue(h)
	sort.Slice(popped, func(i, j int) bool { return popped[i].seq < popped[j].seq })

	var challenges, deferrals, retries uint64
	issued := make([]int, len(s.store.shards))
	dispatch := func(en *entry, ch *core.Challenge) {
		due = append(due, proofJob{entry: en, ch: ch, slot: len(block)})
		block = append(block, nil)
	}
	defer func() {
		s.mu.Lock()
		s.stats.Woken += uint64(len(popped))
		s.stats.Challenges += challenges
		s.stats.Deferrals += deferrals
		s.stats.Retries += retries
		s.mu.Unlock()
		s.obsTick(len(popped), int(deferrals))
	}()

	for _, en := range popped {
		if s.journalDead() {
			// A flush inside a previous entry's append crashed: no further
			// challenge may be issued. The remaining popped entries are
			// dropped un-rearmed — recovery re-arms them from disk.
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
				if s.maxInflight > 0 && issued[en.shard] >= s.maxInflight {
					// Admission full: defer with no challenge issued, so no
					// deadline starts — the deferral cannot slash.
					deferrals++
					s.store.arm(h+1, en)
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
				issued[en.shard]++
				challenges++
				s.setPhase(en, phaseProving)
				s.tracer.Emit(obs.EvChallenge, string(e.ID()), e.Contract.Round(), h, "")
				dispatch(en, ch)
			case contract.StateProve:
				// Adopted mid-round: resume the open challenge. Exempt from
				// admission — its deadline is already running.
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
			// the backoff has elapsed: re-ask. Counts against admission like
			// a fresh challenge — retrying is load too.
			if s.maxInflight > 0 && issued[en.shard] >= s.maxInflight {
				deferrals++
				s.store.arm(h+1, en)
				continue
			}
			issued[en.shard]++
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
// (bounded by WithOverloadRetries) with the challenge still open; any other
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
			if s.maxRetries > 0 && en.retries > s.maxRetries {
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
	s.tracer.Emit(obs.EvProof, string(e.ID()), e.Contract.Round(), h, "")
	return true
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
		if s.journalDead() {
			// A flush crashed while recording an earlier verdict. The rest
			// of the block's verdicts are already on-chain with no journal
			// record — exactly the window Recover reconciles.
			return ErrCrashed
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
// lock held, and (under WithAutoCompact) drops the entry.
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
