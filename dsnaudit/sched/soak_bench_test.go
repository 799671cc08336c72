package sched

import (
	"os"
	"testing"
)

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

// BenchmarkSoak100k is the scale benchmark behind the planetary-scale
// claim: 100k live engagements driven to completion with spill-backed
// audit state. It reports per-tick latency and peak memory alongside the
// usual ns/op. Minutes of work, so it only runs when SOAK is set.
func BenchmarkSoak100k(b *testing.B) {
	if os.Getenv("SOAK") == "" {
		b.Skip("set SOAK=1 to run the 100k soak")
	}
	for i := 0; i < b.N; i++ {
		rep, err := RunSoak(SoakConfig{
			Engagements: 100_000,
			SpillDir:    b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.TickMedians[9].Nanoseconds()), "ns/tick-median")
		b.ReportMetric(float64(rep.TickP99.Nanoseconds()), "ns/tick-p99")
		b.ReportMetric(rep.FlatnessRatio, "flatness")
		b.ReportMetric(float64(rep.HeapPeak), "heap-peak-bytes")
	}
}

// BenchmarkSoak1M is the endurance run: a million journaled engagements
// driven to completion in the full production shape — spill-backed audit
// state, durability barriers, checkpoints. Tens of minutes of work; it runs
// only when SOAK is set (the nightly workflow gates the same population
// through `cmd/experiments -exp soak -n 1000000`).
func BenchmarkSoak1M(b *testing.B) {
	if os.Getenv("SOAK") == "" {
		b.Skip("set SOAK=1 to run the 1M soak")
	}
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		rep, err := RunSoak(SoakConfig{
			Engagements: 1_000_000,
			Interval:    1024,
			SpillDir:    dir,
			JournalDir:  dir + "/journal",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.TickMedians[9].Nanoseconds()), "ns/tick-median")
		b.ReportMetric(float64(rep.TickP99.Nanoseconds()), "ns/tick-p99")
		b.ReportMetric(rep.FlatnessRatio, "flatness")
		b.ReportMetric(float64(rep.HeapPeak), "heap-peak-bytes")
		b.ReportMetric(float64(rep.Journal.Fsyncs), "journal-fsyncs")
		b.ReportMetric(float64(rep.Journal.Bytes), "journal-bytes")
	}
}
