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
	must(journalRecord{typ: recChallenge, addr: "audit:a:sp:f", round: 1})
	must(journalRecord{typ: recProof, addr: "audit:a:sp:f", round: 1})
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
// settlement stage itself: when SettleBlock runs, every contract in the
// block must already have its current round's challenge record written out
// to the journal files on disk — not merely sitting in a shard buffer.
type settleBarrierVerifier struct {
	t      *testing.T
	dir    string
	shards int

	mu      sync.Mutex
	checked int
}

func (v *settleBarrierVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	onDisk := make(map[string]bool)
	for i := 0; i < v.shards; i++ {
		// readShardFrom tolerates a torn tail, which a concurrent append on
		// the run goroutine can briefly look like; the records asserted on
		// below were flushed before this job was queued.
		recs, _, err := readShardFrom(v.dir, i, 0)
		if err != nil {
			v.t.Errorf("settle-time journal read: %v", err)
			continue
		}
		for _, r := range recs {
			if r.typ == recChallenge {
				onDisk[fmt.Sprintf("%s|%d", r.addr, r.round)] = true
			}
		}
	}
	v.mu.Lock()
	for _, c := range cs {
		v.checked++
		if !onDisk[fmt.Sprintf("%s|%d", c.Addr, c.Round())] {
			v.t.Errorf("settling %s round %d before its challenge record was durable", c.Addr, c.Round())
		}
	}
	v.mu.Unlock()
	return TrustingVerifier{}.SettleBlock(cs, height, workers)
}

// TestGroupCommitBarrierBeforeSettlement pins the externally-visible-effect
// rule: settlement moves funds, so every record behind a settle block must
// be flushed before the settlement stage sees it. The flush cadence and
// buffer threshold are set far out of reach, so the pre-settle barrier is
// the only mechanism that can put these records on disk — if it were
// missing, every settle block would fail the assertion.
func TestGroupCommitBarrierBeforeSettlement(t *testing.T) {
	fx, err := buildCrashFixture("group-commit-barrier", 3)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	dir := t.TempDir()
	jnl, err := OpenJournal(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	jnl.flushBytes = 1 << 30
	v := &settleBarrierVerifier{t: t, dir: dir, shards: shards}
	s := NewScheduler(fx.net,
		WithShards(shards),
		WithParallelism(2),
		WithJournal(jnl),
		WithVerifier(v),
		WithJournalFlushEvery(1<<20),
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
	if v.checked == 0 {
		t.Fatal("verifier never saw a settle block")
	}
	// With cadence and threshold unreachable, only barriers wrote: the
	// pre-settle flushes plus the clean-exit sync.
	if st := jnl.Stats(); st.Fsyncs > shards*2 {
		t.Fatalf("%d fsyncs with barriers-only flushing, want at most the exit flush (%d)", st.Fsyncs, shards*2)
	}
}
