package sched

import "errors"

// CrashPoint labels a position in the scheduler's tick pipeline where the
// crash-injection harness can kill a run. The points sit at the stage
// boundaries of one tick: between waking and issuing, between proof
// submission and sealing, around settlement, and inside the checkpoint
// write. A crash hook firing at one of them makes Run return ErrCrashed
// after its deferred cleanup — the in-process equivalent of the process
// dying with the journal in exactly the state a real crash would leave.
type CrashPoint string

const (
	// CrashPreIssue fires at the top of a tick, after the block is received
	// and before any due engagement is woken: challenges for this tick are
	// never issued.
	CrashPreIssue CrashPoint = "pre-issue"
	// CrashPostIssue fires after the wake pass: challenges are issued, no
	// proof has been submitted.
	CrashPostIssue CrashPoint = "post-issue"
	// CrashMidProve fires after one proof submission lands on-chain:
	// some proofs of the tick are submitted, the rest never are.
	CrashMidProve CrashPoint = "mid-prove"
	// CrashPreSettle fires after the tick's proofs are sealed, before the
	// block is handed to the settlement stage.
	CrashPreSettle CrashPoint = "pre-settle"
	// CrashPostSettle fires after the settlement stage applied its verdicts
	// on-chain but before the scheduler records them: the journal has no
	// settled records for a block whose funds and contract rounds already
	// moved — the window recovery must reconcile without re-slashing.
	CrashPostSettle CrashPoint = "post-settle"
	// CrashMidCheckpoint fires partway through writing checkpoint.tmp,
	// leaving a torn tmp file next to a valid previous checkpoint.
	CrashMidCheckpoint CrashPoint = "mid-checkpoint"

	// The three points below bracket the journal's coalesced flushes, where
	// a crash loses a whole buffer of records at once instead of one
	// record's tail. The write-through of a registration or tick mark is
	// deliberately unlabeled — it puts one record in one write, and the six
	// points above already bracket it.

	// CrashBufferFlush fires when a shard's append buffer reaches
	// journalFlushBytes, before any of it is written: every record
	// buffered since the last flush is lost.
	CrashBufferFlush CrashPoint = "buffer-flush"
	// CrashBarrierFlush fires at a scheduler durability barrier (tick-top
	// cadence flush, pre-settlement flush, pre-checkpoint flush, final
	// flush), before the barrier writes: the barrier's buffer is lost, and
	// under a multi-shard barrier the shards already flushed stay written.
	CrashBarrierFlush CrashPoint = "barrier-flush"
	// CrashMidCoalescedWrite fires inside a coalesced flush after a torn
	// prefix of the buffer — cut inside its final record — reached the file:
	// recovery must truncate the torn tail and absorb the rest of the lost
	// buffer, the multi-record generalization of the single-record torn
	// tail.
	CrashMidCoalescedWrite CrashPoint = "mid-coalesced-write"
)

// CrashPoints enumerates every labeled crash point, in pipeline order. The
// crash matrix iterates exactly this list.
var CrashPoints = []CrashPoint{
	CrashPreIssue,
	CrashPostIssue,
	CrashMidProve,
	CrashPreSettle,
	CrashPostSettle,
	CrashMidCheckpoint,
	CrashBufferFlush,
	CrashBarrierFlush,
	CrashMidCoalescedWrite,
}

// ErrCrashed is returned by Run when an injected crash fired. The
// scheduler's in-memory state is dead at that point; recovery goes through
// Recover on the journal directory, never through the crashed instance.
var ErrCrashed = errors.New("sched: crashed at injected crash point")

// WithCrashHook installs the crash-injection hook. The hook is consulted at
// every labeled CrashPoint; returning true kills the run there. Production
// schedulers never set one.
func WithCrashHook(fn func(CrashPoint) bool) Option {
	return func(s *Scheduler) { s.crashHook = fn }
}

// crashAt consults the injected crash hook, if any.
func (s *Scheduler) crashAt(p CrashPoint) bool {
	return s.crashHook != nil && s.crashHook(p)
}
