package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	dir := t.TempDir()
	jnl, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := func(typ recordType) int {
		t.Helper()
		recs, _, err := readLogFrom(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range recs {
			if r.typ == typ {
				n++
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

	// Die once, late enough that the crashed journal has seen whole ticks:
	// right after the second block's verdicts land on-chain.
	settled := 0
	v := newHeldVerifier(&dsnaudit.BatchVerifier{}, func() {
		if settled++; settled == 2 {
			jnl.fail(errInjected)
		}
	})
	s := NewScheduler(fx.net, WithParallelism(2), WithJournal(jnl), WithVerifier(v))
	s.OnBlock(v.hold)
	for _, e := range fx.engs {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if n := onDisk(recRegister); n != len(fx.engs) {
		t.Fatalf("%d of %d registrations on disk before Run", n, len(fx.engs))
	}
	if err := s.Run(context.Background()); !errors.Is(err, errInjected) {
		t.Fatalf("crashed run returned %v, want errInjected", err)
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
	}, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	coalesced("Recover with no flush option", rs.Journal())
	if j := rs.Journal(); len(j.buf) != 0 || j.unsynced {
		t.Errorf("the journal holds %d buffered bytes (unsynced=%v) after a clean Run", len(j.buf), j.unsynced)
	}
	if err := rs.Journal().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalGroupCommitBuffersUntilBarrier pins the coalescing contract at
// the unit level: per-engagement records wait in the buffer until a
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
		recs, _, err := readLogFrom(dir, 0)
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
	if err := j.barrier(false); err != nil {
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
	if err := j.barrier(true); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Fsyncs != 1 {
		t.Fatalf("%d fsyncs after sync barrier, want 1", st.Fsyncs)
	}
	// Re-syncing with nothing new written is free.
	if err := j.barrier(true); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Fsyncs != 1 {
		t.Fatalf("%d fsyncs after redundant sync barrier, want still 1", st.Fsyncs)
	}
}

// TestGroupCommitFsyncBudget runs the crash fixture end to end under group
// commit and bounds the durability tax: appends must coalesce (fewer writes
// than records) and fsyncs must stay within the barrier budget — the tick
// cadence, checkpoints and the clean-exit flush, each at most one fsync —
// rather than scaling with record volume.
func TestGroupCommitFsyncBudget(t *testing.T) {
	fx, err := buildCrashFixture("group-commit-budget", 3)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := OpenJournal(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const flushEvery = 2
	s := NewScheduler(fx.net,
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
	budget := ticks/flushEvery + st.Checkpoints + 2
	if st.Fsyncs > budget {
		t.Fatalf("%d fsyncs over %d ticks exceeds the barrier budget %d", st.Fsyncs, ticks, budget)
	}
}

// TestGroupCommitJournalBytesMatchLegacy pins that coalescing changes when
// bytes reach disk, never which bytes: the same deterministic run journaled
// with a 1-byte buffer threshold (every append is its own write — the
// one-record-per-write layout) and with real coalescing must leave
// byte-identical logs after a clean close.
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
		data, err := os.ReadFile(filepath.Join(dir, journalLogName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	perRecord := run(1)
	coalesced := run(256, WithJournalFlushEvery(4))
	if !bytes.Equal(perRecord, coalesced) {
		t.Fatalf("logs diverge: per-record %d bytes, coalesced %d bytes", len(perRecord), len(coalesced))
	}
}

// heldVerifier runs the settlement stage in lockstep with the Run
// goroutine. Its OnBlock hook, hold, holds the tick after a seal until the
// sealed block's SettleBlock has returned, so what the settlement stage sees
// of the journal, and where a fault it latches stops the run, do not depend
// on goroutine timing: while SettleBlock runs, the Run goroutine has
// appended nothing since it handed the block over but the held tick's mark,
// which writes through. exit, if set, runs after the inner call.
type heldVerifier struct {
	inner dsnaudit.Verifier
	exit  func()
	done  chan struct{} // one token per returned SettleBlock
	last  uint64        // the previous tick's height; a gap is a seal block
}

func newHeldVerifier(inner dsnaudit.Verifier, exit func()) *heldVerifier {
	return &heldVerifier{inner: inner, exit: exit, done: make(chan struct{}, 64)}
}

func (v *heldVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	res, err := v.inner.SettleBlock(cs, height, workers)
	if v.exit != nil {
		v.exit()
	}
	v.done <- struct{}{}
	return res, err
}

func (v *heldVerifier) hold(h uint64) {
	if v.last != 0 && h > v.last+1 {
		<-v.done
	}
	v.last = h
}

// settleBarrierVerifier asserts the settlement durability barrier from the
// settlement stage itself: when SettleBlock runs for a block, the settled
// record of every round it settled in the previous block, and every settled
// and parked record appended up to the barrier, must be readable from the
// journal log on disk — not merely sitting in the buffer. It runs
// behind a heldVerifier and over a tickGate, so what the journal holds on
// disk and in its buffer is what was appended up to the barrier.
type settleBarrierVerifier struct {
	t    *testing.T
	jnl  *Journal
	gate *tickGate
	s    *Scheduler

	mu      sync.Mutex
	prev    []string // settled records the previous block's verdicts owe
	settled int      // records checked, by kind
	parked  int
}

func barrierKey(r journalRecord) string {
	return fmt.Sprintf("%d|%s|%d|%d", r.typ, r.addr, r.round, r.height)
}

// buffered returns the records appended but not yet written, and a release
// to call once the journal has been looked at. If the Run goroutine will
// tick again — a live entry is not settling — its next write is the tick
// mark the gate holds, with the buffer in front of it: take the buffer from
// there. Otherwise it joins this block and appends nothing: read the
// buffer, and let the tick mark after the join through.
func (v *settleBarrierVerifier) buffered() ([]journalRecord, func()) {
	var buf []byte
	release := func() {}
	if live, settling := v.s.store.counts(); live > settling {
		buf = <-v.gate.held
		release = func() { v.gate.resume <- struct{}{} }
	} else {
		v.jnl.mu.Lock()
		buf = append(buf, v.jnl.buf...)
		v.jnl.mu.Unlock()
		v.gate.skip <- struct{}{}
	}
	recs, _, err := scanRecords(buf, "buffer")
	if err != nil {
		v.t.Errorf("buffer scan: %v", err)
	}
	return recs, release
}

// onDisk reads every record the log holds.
func (v *settleBarrierVerifier) onDisk() []journalRecord {
	// readLogFrom tolerates a torn tail, which the held tick's mark write
	// can briefly look like; the records asserted on were flushed before
	// the settle job was queued.
	recs, _, err := readLogFrom(v.jnl.dir, 0)
	if err != nil {
		v.t.Errorf("journal read: %v", err)
	}
	return recs
}

func (v *settleBarrierVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	buffered, release := v.buffered()
	defer release()
	appended := append(v.onDisk(), buffered...)
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
	for _, r := range appended {
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
	return trustingVerifier{}.SettleBlock(cs, height, workers)
}

// TestGroupCommitBarrierBeforeSettlement pins the externally-visible-effect
// rule: settlement moves funds, so what recovery needs to reconcile the
// blocks before it — their settled records, every parked mark — must be
// flushed before the settlement stage sees the next block: the window
// recovery reconciles from the contracts is one block. The flush cadence and
// buffer threshold are set far out of reach, and the tick mark that follows
// a hand-off — a write-through, which flushes the buffer ahead of it — is
// held until the settlement stage has looked, so the pre-settle barrier is
// the only mechanism that can put these records on disk in time — if it were
// missing, every settle block after the first would fail the assertion.
func TestGroupCommitBarrierBeforeSettlement(t *testing.T) {
	fx, err := buildCrashFixture("group-commit-barrier", 3)
	if err != nil {
		t.Fatal(err)
	}
	gate := newTickGate()
	jnl, err := openJournal(gate, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jnl.flushBytes = 1 << 30
	b := &settleBarrierVerifier{t: t, jnl: jnl, gate: gate}
	v := newHeldVerifier(b, nil)
	s := NewScheduler(fx.net,
		WithParallelism(2),
		WithJournal(jnl),
		WithVerifier(v),
		WithJournalFlushEvery(1<<20),
	)
	b.s = s
	s.OnBlock(v.hold)
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
	if b.settled == 0 || b.parked == 0 {
		t.Fatalf("verifier checked %d settled and %d parked records, want both kinds", b.settled, b.parked)
	}
	// With cadence and threshold unreachable, only barriers wrote, and of
	// those only the clean exit syncs: a pre-settle flush writes without one.
	if st := jnl.Stats(); st.Fsyncs != 1 {
		t.Fatalf("%d fsyncs with barriers-only flushing, want the exit sync alone", st.Fsyncs)
	}
}

// tickGate is fsys over os that holds the first tick mark after a seal
// block — the first journal write after a hand-off, and a write-through
// that flushes whatever the buffer holds ahead of it — until the sealed
// block's SettleBlock takes the held write's other records (held) and lets
// it go (resume), or has said it will not (skip).
type tickGate struct {
	osFS
	last   uint64 // the previous tick mark's height; a gap is a seal block
	held   chan []byte
	resume chan struct{}
	skip   chan struct{}
}

func newTickGate() *tickGate {
	return &tickGate{held: make(chan []byte), resume: make(chan struct{}), skip: make(chan struct{}, 64)}
}

func (g *tickGate) OpenFile(name string, flag int, perm os.FileMode) (fsFile, error) {
	f, err := g.osFS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != journalLogName {
		return f, err
	}
	return gatedLog{f, g}, nil
}

type gatedLog struct {
	fsFile
	g *tickGate
}

func (w gatedLog) Write(p []byte) (int, error) {
	recs, _, _ := scanRecords(p, "write")
	if n := len(recs); n > 0 && recs[n-1].typ == recTick {
		tick := recs[n-1]
		if w.g.last != 0 && tick.height > w.g.last+1 {
			select {
			case w.g.held <- p[:len(p)-len(appendRecord(nil, tick))]:
				<-w.g.resume
			case <-w.g.skip:
			}
		}
		w.g.last = tick.height
	}
	return w.fsFile.Write(p)
}
