package sched

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkJournalAppend measures the per-decision durability tax: one
// encoded, checksummed, buffered append of a representative record mix.
// This is the cost every challenge, proof, and settlement pays once
// journaling is on, so it has to stay far below a scheduler tick.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := OpenJournal(b.TempDir(), 4)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	recs := sampleRecords()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := j.Stats()
	b.SetBytes(int64(st.Bytes / st.Appends))
}

// benchSoak runs the 2k-engagement soak with or without a journal and
// reports tick latency, so the journaled-vs-bare pair keeps the durability
// overhead visible. The journaled run uses the soak's defaults (4 journal
// shards, synced flush every 64 ticks), the same shape the nightly 1M gate
// measures.
func benchSoak(b *testing.B, journaled, instrumented bool) {
	for i := 0; i < b.N; i++ {
		cfg := SoakConfig{
			Engagements: 2_000,
			Interval:    64,
			SpillDir:    b.TempDir(),
			SpillWindow: 256,
		}
		if journaled {
			cfg.JournalDir = b.TempDir()
			cfg.CheckpointEvery = 64
		}
		if instrumented {
			cfg.Registry = obs.NewRegistry()
		}
		rep, err := RunSoak(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.TickMedians[9].Nanoseconds()), "ns/tick-median")
		b.ReportMetric(float64(rep.TickP99.Nanoseconds()), "ns/tick-p99")
		if journaled {
			b.ReportMetric(float64(rep.Journal.Appends), "journal-appends")
			b.ReportMetric(float64(rep.Journal.Bytes), "journal-bytes")
			b.ReportMetric(float64(rep.Journal.Writes), "journal-writes")
			b.ReportMetric(float64(rep.Journal.Fsyncs), "journal-fsyncs")
		}
	}
}

func BenchmarkSoakBare2k(b *testing.B)      { benchSoak(b, false, false) }
func BenchmarkSoakJournaled2k(b *testing.B) { benchSoak(b, true, false) }

// BenchmarkObsOverhead is the bare 2k soak with the full metrics registry
// attached: scheduler, spill and chain all instrumented. Its delta against
// BenchmarkSoakBare2k is the observability tax — the func-backed series and
// nil-checked hot paths are supposed to make that delta disappear into
// run-to-run noise.
func BenchmarkObsOverhead(b *testing.B) { benchSoak(b, false, true) }
