package sched

import "testing"

// TestSoakSmoke drives a scaled-down soak end to end: every engagement
// settles every round, nothing is slashed, audit state is reclaimed as
// engagements retire, and the spill store actually paged.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke is seconds of work; skipped under -short")
	}
	rep, err := RunSoak(SoakConfig{
		Engagements: 2_000,
		Interval:    64,
		SpillDir:    t.TempDir(),
		SpillWindow: 256,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d engagements, %d ticks in %v, flatness %.2f, heap peak %d MB",
		rep.Engagements, rep.Ticks, rep.Elapsed, rep.FlatnessRatio, rep.HeapPeak>>20)
	st := rep.Sched
	if st.Live != 0 {
		t.Fatalf("%d engagements still live", st.Live)
	}
	if got := st.Compacted; got != uint64(rep.Engagements) {
		t.Fatalf("compacted %d of %d terminal engagements", got, rep.Engagements)
	}
	if rep.Spill.Spills == 0 || rep.Spill.Hydrates == 0 {
		t.Fatalf("spill store never paged: %+v", rep.Spill)
	}
	if rep.Spill.Resident != 0 {
		t.Fatalf("%d provers still resident after every engagement retired", rep.Spill.Resident)
	}
}
