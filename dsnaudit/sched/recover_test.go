package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/contract"
)

func sampleCheckpoint() *checkpointData {
	return &checkpointData{
		seq:      9,
		lastWake: 140,
		offset:   1024,
		entries: []checkpointEntry{
			{addr: "audit:alice:sp-a:f", seq: 0, baseRounds: 1, rounds: 2, passed: 2, hint: hintLive},
			{addr: "audit:bob:sp-b:g", seq: 1, rounds: 1, failed: 1, retries: 3, hint: hintRetry, parkedRound: 2, parkedHeight: 150},
			{addr: "audit:carol:sp-c:h", seq: 2, rounds: 1, failed: 1, hint: hintDeadline, parkedRound: 2, parkedHeight: 160},
			{addr: "audit:dave:sp-d:i", seq: 3, rounds: 3, passed: 3, hint: hintTerminal, state: contract.StateExpired, errMsg: "x"},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleCheckpoint()
	got, err := decodeCheckpoint(encodeCheckpoint(want), "test")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	buf := encodeCheckpoint(sampleCheckpoint())
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"flipped byte", func() []byte {
			b := append([]byte(nil), buf...)
			b[len(b)/2] ^= 0x08
			return b
		}()},
		{"truncated", buf[:len(buf)-9]},
		{"short file", buf[:4]},
		// Sealed, so only the field check can refuse it.
		{"negative journal offset", encodeCheckpoint(&checkpointData{offset: -1})},
	} {
		if _, err := decodeCheckpoint(tc.data, "test"); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCheckpointCorrupt", tc.name, err)
		}
	}
}

// TestLoadCheckpointTornTmpIgnored pins the crash-mid-checkpoint rule: a
// torn checkpoint.tmp is expected debris — removed silently, with the
// previous complete checkpoint still authoritative.
func TestLoadCheckpointTornTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	buf := encodeCheckpoint(sampleCheckpoint())
	if err := os.WriteFile(filepath.Join(dir, checkpointName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointTmpName), buf[:len(buf)-11], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := (&Journal{fs: osFS{}, dir: dir}).loadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.seq != 9 || len(got.entries) != 4 {
		t.Fatalf("checkpoint not loaded past torn tmp: %+v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointTmpName)); !os.IsNotExist(err) {
		t.Fatalf("torn tmp not removed: %v", err)
	}
}

func TestLoadCheckpointMissing(t *testing.T) {
	got, err := (&Journal{fs: osFS{}, dir: t.TempDir()}).loadCheckpoint()
	if err != nil || got != nil {
		t.Fatalf("missing checkpoint = (%+v, %v), want (nil, nil)", got, err)
	}
}

// TestDurableStateMerge drives the journal-replay merge through every
// transition: registration, per-round progress, parking, settlement
// accounting, terminal override, tick high-water marks, sequence floors, and
// the supersede rule for a re-added address.
func TestDurableStateMerge(t *testing.T) {
	st := &durableState{entries: make(map[chain.Address]*recoveredEntry)}
	for _, r := range []journalRecord{
		{typ: recTick, height: 10},
		{typ: recRegister, addr: "a", seq: 0, baseRounds: 1},
		{typ: recRegister, addr: "b", seq: 1},
		{typ: recSettled, addr: "a", round: 1, passed: true},
		{typ: recParked, addr: "b", kind: parkRetry, round: 0, height: 30, retries: 2},
		{typ: recTick, height: 12},
		{typ: recSettled, addr: "b", round: 0, deadline: true},
		{typ: recTerminal, addr: "b", state: contract.StateAborted, rounds: 1, failN: 1, errMsg: ""},
		// b finished and its address was re-added: the new registration
		// supersedes everything above.
		{typ: recRegister, addr: "b", seq: 2, baseRounds: 1},
		{typ: recTick, height: 11}, // stale tick never lowers the high-water mark
	} {
		st.apply(r)
	}
	if st.lastWake != 12 {
		t.Fatalf("lastWake = %d, want 12", st.lastWake)
	}
	if st.seq != 3 {
		t.Fatalf("next seq = %d, want 3 (max register seq + 1)", st.seq)
	}
	a := st.entries["a"]
	if a == nil || a.rounds != 1 || a.passed != 1 || a.failed != 0 || a.baseRounds != 1 || a.hint != hintLive {
		t.Fatalf("entry a = %+v", a)
	}
	b := st.entries["b"]
	if b == nil || b.seq != 2 || b.baseRounds != 1 || b.rounds != 0 || b.hint != hintLive || b.retries != 0 {
		t.Fatalf("re-registered entry b not superseded: %+v", b)
	}
	if len(st.order) != 3 {
		t.Fatalf("order lists %d registrations, want 3", len(st.order))
	}

	// The same history minus the supersede, checked for the parked and
	// terminal views.
	st2 := &durableState{entries: make(map[chain.Address]*recoveredEntry)}
	st2.apply(journalRecord{typ: recRegister, addr: "c", seq: 5})
	st2.apply(journalRecord{typ: recParked, addr: "c", kind: parkDeadline, round: 1, height: 40, retries: 0})
	c := st2.entries["c"]
	if c.hint != hintDeadline || c.parkedKind != parkDeadline || c.parkedRound != 1 || c.parkedHeight != 40 {
		t.Fatalf("parked entry c = %+v", c)
	}
	st2.apply(journalRecord{typ: recTerminal, addr: "c", state: contract.StateExpired, rounds: 2, passN: 2})
	if c.hint != hintTerminal || c.termState != contract.StateExpired || c.rounds != 2 || c.passed != 2 {
		t.Fatalf("terminal entry c = %+v", c)
	}

	// Records for an address with no registration (a compacted predecessor's
	// stragglers) are ignored, never invented into entries.
	st2.apply(journalRecord{typ: recSettled, addr: "ghost", round: 0, passed: true})
	if _, ok := st2.entries["ghost"]; ok {
		t.Fatal("settled record without registration created an entry")
	}
}

// TestCheckpointEveryZeroDisables pins WithCheckpointEvery's "n <= 0
// disables" against option order: the journal's default cadence must not
// come back because WithJournal was applied after it — which is the order
// Recover always applies them in. Both halves run past the default cadence
// of 64 ticks.
func TestCheckpointEveryZeroDisables(t *testing.T) {
	fx, err := buildCrashFixture("no-checkpoint", 70)
	if err != nil {
		t.Fatal(err)
	}
	eng := fx.engs[10] // bob's honest engagement: two ticks a round
	dir := t.TempDir()
	jnl, err := OpenJournal(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	noCheckpoint := func(who string, s *Scheduler) {
		t.Helper()
		if ticks := s.Stats().Ticks; ticks < 64 {
			t.Fatalf("%s ran %d ticks, too few to reach the default cadence", who, ticks)
		}
		if n := s.Journal().Stats().Checkpoints; n != 0 {
			t.Errorf("%s wrote %d checkpoints with WithCheckpointEvery(0)", who, n)
		}
		if _, err := os.Stat(filepath.Join(dir, checkpointName)); !os.IsNotExist(err) {
			t.Errorf("%s left a checkpoint file (stat err = %v)", who, err)
		}
	}

	blocks := 0
	s := NewScheduler(fx.net, WithVerifier(trustingVerifier{}), WithCheckpointEvery(0), WithJournal(jnl))
	s.OnBlock(func(uint64) {
		if blocks++; blocks == 70 {
			jnl.fail(errInjected) // die at the 70th block, before it issues
		}
	})
	if err := s.Add(eng); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); !errors.Is(err, errInjected) {
		t.Fatalf("crashed run returned %v, want errInjected", err)
	}
	jnl.Close()
	noCheckpoint("NewScheduler(WithCheckpointEvery(0), WithJournal(j))", s)

	rs, _, err := Recover(dir, fx.net, func(chain.Address) (*dsnaudit.Engagement, error) { return eng, nil },
		WithVerifier(trustingVerifier{}), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rs.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	noCheckpoint("Recover(WithCheckpointEvery(0))", rs)
}

// TestRecoverObservesEachRoundOnce kills a journaled run at the first barrier
// write that holds a settled record: those rounds' verdicts were fed to the
// reputation ledger before the crash and their journal records die with the
// write. Recovery must journal them again without observing them again —
// every provider's standing ends equal to an uninterrupted run's.
func TestRecoverObservesEachRoundOnce(t *testing.T) {
	// A provider's trust, and for a slashed one (trust 0 whatever else it
	// did) its engagements' observed-round counts, pin every observation.
	standing := func(fx *crashFixture) map[string]string {
		out := make(map[string]string)
		for _, e := range fx.engs {
			out[e.Provider.Name] = fmt.Sprintf("trust %.9f", fx.net.Reputation.Trust(e.Provider.Name))
			out[string(e.ID())] = fmt.Sprintf("observed %d rounds", e.ObservedRounds())
		}
		return out
	}

	ref, err := buildCrashFixture("observe-once", 3)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewScheduler(ref.net, WithParallelism(2))
	for _, e := range ref.engs {
		if err := rs.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := standing(ref)

	fx, err := buildCrashFixture("observe-once", 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lost := 0
	ffs := &faultFS{root: dir, dies: func(_ int, e effect, p []byte) bool {
		if e.op != "write" {
			return false
		}
		recs, _, _ := scanRecords(p, "write")
		if len(recs) == 0 || recs[len(recs)-1].typ == recTick || recs[len(recs)-1].typ == recRegister {
			return false // a write-through, not a barrier
		}
		for _, r := range recs {
			if r.typ == recSettled {
				lost++
			}
		}
		return lost > 0
	}}
	jnl, err := openJournal(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(fx.net, WithParallelism(2), WithJournal(jnl))
	for _, e := range fx.engs {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(context.Background()); !errors.Is(err, errInjected) {
		t.Fatalf("run returned %v, want the kill at a barrier holding settled records", err)
	}
	jnl.Close()

	resolve := make(map[chain.Address]*dsnaudit.Engagement, len(fx.engs))
	for _, e := range fx.engs {
		resolve[e.ID()] = e
	}
	rec, rrep, err := Recover(dir, fx.net, func(addr chain.Address) (*dsnaudit.Engagement, error) {
		return resolve[addr], nil
	}, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Reconciled < lost {
		t.Fatalf("recovery reconciled %d rounds, the crash lost %d settled records", rrep.Reconciled, lost)
	}
	if err := rec.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rec.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	got := standing(fx)
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s standing %+v, want %+v", name, g, w)
		}
	}
}

// TestJournalFaultTickIssuesNoChallenge pins wakeAt's journal-fault rule: a
// tick whose journal has already failed issues no challenge — it submits no
// challenge transaction and every due contract stays in AUDIT for recovery
// to re-arm — while the same tick on a healthy journal issues every due
// challenge in one transaction.
func TestJournalFaultTickIssuesNoChallenge(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		fx, err := buildCrashFixture("wake-fault", 2)
		if err != nil {
			t.Fatal(err)
		}
		jnl, err := OpenJournal(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(fx.net, WithJournal(jnl))
		var h uint64
		for _, e := range fx.engs {
			if err := s.Add(e); err != nil {
				t.Fatal(err)
			}
			h = max(h, e.Contract.TriggerHeight())
		}
		for fx.net.Chain.Height() < h {
			fx.net.Chain.MineBlock()
		}
		if faulted {
			jnl.fail(errInjected)
		}
		pending := fx.net.Chain.PendingCount()
		due, _, _ := s.wakeAt(h)
		txs, audit := fx.net.Chain.PendingCount()-pending, 0
		for _, e := range fx.engs {
			if e.Contract.State() == contract.StateAudit {
				audit++
			}
		}
		jnl.Close()
		switch {
		case faulted && (txs != 0 || len(due) != 0 || audit != len(fx.engs)):
			t.Fatalf("a faulted tick submitted %d transactions and dispatched %d proofs, left %d of %d contracts in AUDIT",
				txs, len(due), audit, len(fx.engs))
		case !faulted && (txs != 1 || len(due) != len(fx.engs) || audit != 0):
			t.Fatalf("a healthy tick submitted %d transactions for %d challenges, left %d contracts in AUDIT", txs, len(due), audit)
		}
	}
}
