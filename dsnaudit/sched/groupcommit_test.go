package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/contract"
)

// TestJournalDefaultIsGroupCommit pins what WithJournal alone, and Recover
// with no flush option, give a caller: registrations are on disk the moment
// Add returns, appends coalesce (fewer writes than records), the tick-top
// barrier fsyncs, and a clean Run leaves nothing in the buffers.
func TestJournalDefaultIsGroupCommit(t *testing.T) {
	fx, err := buildCrashFixture("default-mode", 3)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	dir := t.TempDir()
	jnl, err := OpenJournal(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := func(typ recordType) int {
		t.Helper()
		n := 0
		for i := 0; i < shards; i++ {
			recs, _, err := readShardFrom(dir, i, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if r.typ == typ {
					n++
				}
			}
		}
		return n
	}
	coalesced := func(who string, j *Journal) {
		t.Helper()
		st := j.Stats()
		if st.Writes >= st.Appends {
			t.Errorf("%s: %d writes for %d appends: the default mode never coalesced", who, st.Writes, st.Appends)
		}
		if st.Fsyncs == 0 {
			t.Errorf("%s: the default mode never fsynced", who)
		}
	}

	// Die once, late enough that the crashed journal has seen whole ticks.
	fired := 0
	s := NewScheduler(fx.net, WithShards(shards), WithParallelism(2), WithJournal(jnl),
		WithCrashHook(func(p CrashPoint) bool {
			if p != CrashPostSettle {
				return false
			}
			fired++
			return fired == 2
		}))
	for _, e := range fx.engs {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if n := onDisk(recRegister); n != len(fx.engs) {
		t.Fatalf("%d of %d registrations on disk before Run", n, len(fx.engs))
	}
	if err := s.Run(context.Background()); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashed run returned %v, want ErrCrashed", err)
	}
	if ticks := onDisk(recTick); uint64(ticks) != s.Stats().Ticks {
		t.Fatalf("%d tick marks on disk after %d ticks", ticks, s.Stats().Ticks)
	}
	coalesced("WithJournal alone", jnl)
	jnl.Close()

	resolve := make(map[chain.Address]*dsnaudit.Engagement, len(fx.engs))
	for _, e := range fx.engs {
		resolve[e.ID()] = e
	}
	rs, _, err := Recover(dir, fx.net, func(addr chain.Address) (*dsnaudit.Engagement, error) {
		return resolve[addr], nil
	}, WithShards(shards), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	coalesced("Recover with no flush option", rs.Journal())
	for i, sh := range rs.Journal().shards {
		if len(sh.buf) != 0 || sh.unsynced {
			t.Errorf("shard %d holds %d buffered bytes (unsynced=%v) after a clean Run", i, len(sh.buf), sh.unsynced)
		}
	}
	if err := rs.Journal().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalGroupCommitBuffersUntilBarrier pins the coalescing contract at
// the unit level: per-engagement records wait in the shard buffer until a
// barrier, registrations and ticks write through immediately, a write-only
// barrier costs no fsync, and a sync barrier over already-written bytes
// costs exactly one.
func TestJournalGroupCommitBuffersUntilBarrier(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	onDisk := func() int {
		t.Helper()
		recs, _, err := readShardFrom(dir, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}

	// A lost registration is unrecoverable and a lost tick shifts the
	// resume height, so both write through the buffer.
	must := func(r journalRecord) {
		t.Helper()
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	must(journalRecord{typ: recRegister, addr: "audit:a:sp:f", seq: 0, baseRounds: 1})
	must(journalRecord{typ: recTick, height: 1})
	if n := onDisk(); n != 2 {
		t.Fatalf("%d records on disk after write-through appends, want 2", n)
	}

	// Per-engagement traffic coalesces: nothing more hits disk until a
	// barrier flushes the buffer.
	must(journalRecord{typ: recParked, addr: "audit:a:sp:f", kind: parkRetry, round: 1, height: 3, retries: 1})
	must(journalRecord{typ: recSettled, addr: "audit:a:sp:f", round: 1, passed: true})
	if n := onDisk(); n != 2 {
		t.Fatalf("%d records on disk, want 2: buffered records leaked before the barrier", n)
	}
	if err := j.barrier(false, CrashBarrierFlush); err != nil {
		t.Fatal(err)
	}
	if n := onDisk(); n != 4 {
		t.Fatalf("%d records on disk after barrier, want 4", n)
	}
	st := j.Stats()
	if st.Writes != 3 {
		t.Fatalf("%d writes, want 3 (two write-throughs + one coalesced barrier)", st.Writes)
	}
	if st.Fsyncs != 0 {
		t.Fatalf("write-only barrier issued %d fsyncs, want 0", st.Fsyncs)
	}

	// A sync barrier with an empty buffer still owes the fsync for the
	// bytes written above — and only that one.
	if err := j.barrier(true, CrashBarrierFlush); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Fsyncs != 1 {
		t.Fatalf("%d fsyncs after sync barrier, want 1", st.Fsyncs)
	}
	// Re-syncing with nothing new written is free.
	if err := j.barrier(true, CrashBarrierFlush); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Fsyncs != 1 {
		t.Fatalf("%d fsyncs after redundant sync barrier, want still 1", st.Fsyncs)
	}
}

// TestGroupCommitFsyncBudget runs the crash fixture end to end under group
// commit and bounds the durability tax: appends must coalesce (fewer writes
// than records) and fsyncs must stay within the barrier budget — the tick
// cadence, checkpoints and the clean-exit flush, each at most one fsync per
// shard — rather than scaling with record volume.
func TestGroupCommitFsyncBudget(t *testing.T) {
	fx, err := buildCrashFixture("group-commit-budget", 3)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	jnl, err := OpenJournal(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	const flushEvery = 2
	s := NewScheduler(fx.net,
		WithShards(shards),
		WithParallelism(2),
		WithJournal(jnl),
		WithCheckpointEvery(3),
		WithJournalFlushEvery(flushEvery),
	)
	for _, e := range fx.engs {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	st := jnl.Stats()
	if st.Fsyncs == 0 {
		t.Fatal("group commit never fsynced")
	}
	if st.Writes >= st.Appends {
		t.Fatalf("%d writes for %d appends: group commit never coalesced", st.Writes, st.Appends)
	}
	ticks := s.Stats().Ticks
	budget := uint64(shards) * (ticks/flushEvery + st.Checkpoints + 2)
	if st.Fsyncs > budget {
		t.Fatalf("%d fsyncs over %d ticks exceeds the barrier budget %d", st.Fsyncs, ticks, budget)
	}
}

// TestGroupCommitJournalBytesMatchLegacy pins that coalescing changes when
// bytes reach disk, never which bytes: the same deterministic run journaled
// with a 1-byte buffer threshold (every append is its own write — the
// one-record-per-write layout) and with real coalescing must leave
// byte-identical shard files after a clean close.
func TestGroupCommitJournalBytesMatchLegacy(t *testing.T) {
	run := func(flushBytes int, opts ...Option) []byte {
		t.Helper()
		fx, err := buildCrashFixture("group-commit-bytes", 3)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		jnl, err := OpenJournal(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		jnl.flushBytes = flushBytes
		s := NewScheduler(fx.net, append([]Option{
			WithShards(1),
			WithParallelism(1),
			WithJournal(jnl),
		}, opts...)...)
		for _, e := range fx.engs {
			if err := s.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		if st := jnl.Stats(); flushBytes == 1 && st.Writes != st.Appends {
			t.Fatalf("1-byte threshold issued %d writes for %d appends, want one per record", st.Writes, st.Appends)
		}
		data, err := os.ReadFile(journalShardPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	perRecord := run(1)
	coalesced := run(256, WithJournalFlushEvery(4))
	if !bytes.Equal(perRecord, coalesced) {
		t.Fatalf("shard files diverge: per-record %d bytes, coalesced %d bytes", len(perRecord), len(coalesced))
	}
}

// settleBarrierVerifier asserts the settlement durability barrier from the
// settlement stage itself: when SettleBlock runs for a block, the settled
// record of every round it settled in the previous block, and every settled
// and parked record appended up to the barrier, must be readable from the
// journal files on disk — not merely sitting in a shard buffer.
type settleBarrierVerifier struct {
	t   *testing.T
	jnl *Journal

	mu       sync.Mutex
	appended []journalRecord // settled and parked records appended before the coming block's barrier
	prev     []string        // settled records the previous block's verdicts owe
	settled  int             // records checked, by kind
	parked   int
}

func barrierKey(r journalRecord) string {
	return fmt.Sprintf("%d|%s|%d|%d", r.typ, r.addr, r.round, r.height)
}

// atPreSettle runs on the Run goroutine just before the barrier (it is the
// crash hook, which never fires): everything on disk plus everything still
// buffered is what has been appended so far.
func (v *settleBarrierVerifier) atPreSettle(p CrashPoint) bool {
	if p != CrashPreSettle {
		return false
	}
	appended := v.onDisk()
	for _, sh := range v.jnl.shards {
		sh.mu.Lock()
		recs, _, err := scanRecords(sh.buf, "buffer")
		sh.mu.Unlock()
		if err != nil {
			v.t.Errorf("pre-settle buffer scan: %v", err)
		}
		appended = append(appended, recs...)
	}
	v.mu.Lock()
	v.appended = appended
	v.mu.Unlock()
	return false
}

// onDisk reads every settled and parked record the shard files hold.
func (v *settleBarrierVerifier) onDisk() []journalRecord {
	var out []journalRecord
	for i := range v.jnl.shards {
		// readShardFrom tolerates a torn tail, which a concurrent append on
		// the run goroutine can briefly look like; the records asserted on
		// were flushed before the settle job was queued.
		recs, _, err := readShardFrom(v.jnl.dir, i, 0)
		if err != nil {
			v.t.Errorf("journal read: %v", err)
		}
		out = append(out, recs...)
	}
	return out
}

func (v *settleBarrierVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	disk := make(map[string]bool)
	for _, r := range v.onDisk() {
		disk[barrierKey(r)] = true
	}
	v.mu.Lock()
	for _, k := range v.prev {
		v.settled++
		if !disk[k] {
			v.t.Errorf("settling block at height %d before the previous block's settled record %s was written", height, k)
		}
	}
	for _, r := range v.appended {
		if r.typ != recSettled && r.typ != recParked {
			continue
		}
		if r.typ == recParked {
			v.parked++
		}
		if !disk[barrierKey(r)] {
			v.t.Errorf("settling block at height %d before record %s, appended ahead of its barrier, was written", height, barrierKey(r))
		}
	}
	v.prev = v.prev[:0]
	for _, c := range cs {
		v.prev = append(v.prev, barrierKey(journalRecord{typ: recSettled, addr: c.Addr, round: c.Round()}))
	}
	v.mu.Unlock()
	return TrustingVerifier{}.SettleBlock(cs, height, workers)
}

// TestGroupCommitBarrierBeforeSettlement pins the externally-visible-effect
// rule: settlement moves funds, so what recovery needs to reconcile the
// blocks before it — their settled records, every parked mark — must be
// flushed before the settlement stage sees the next block: the window
// recovery reconciles from the contracts is one block. The flush cadence and
// buffer threshold are set far out of reach, so the pre-settle barrier is
// the only mechanism that can put these records on disk (tick marks write
// shard 0's buffer through; the fixture spreads over all four) — if it were
// missing, every settle block after the first would fail the assertion.
func TestGroupCommitBarrierBeforeSettlement(t *testing.T) {
	fx, err := buildCrashFixture("group-commit-barrier", 3)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	jnl, err := OpenJournal(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	jnl.flushBytes = 1 << 30
	v := &settleBarrierVerifier{t: t, jnl: jnl}
	s := NewScheduler(fx.net,
		WithShards(shards),
		WithParallelism(2),
		WithJournal(jnl),
		WithVerifier(v),
		WithJournalFlushEvery(1<<20),
		WithCrashHook(v.atPreSettle),
	)
	for _, e := range fx.engs {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if v.settled == 0 || v.parked == 0 {
		t.Fatalf("verifier checked %d settled and %d parked records, want both kinds", v.settled, v.parked)
	}
	// With cadence and threshold unreachable, only barriers wrote: the
	// pre-settle flushes plus the clean-exit sync.
	if st := jnl.Stats(); st.Fsyncs > shards*2 {
		t.Fatalf("%d fsyncs with barriers-only flushing, want at most the exit flush (%d)", st.Fsyncs, shards*2)
	}
}
