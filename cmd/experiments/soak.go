package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/dsnaudit/sched"
	"repro/internal/obs"
)

// runSoak measures the scheduler at planetary scale: two engagement
// populations, the second twice the first, staggered so both wake the same
// number of engagements per tick. An O(due) scheduler shows the same
// per-tick latency for both — the wake queues never look at engagements
// that are not due — while a linear scan's ticks double with the
// population. The run also pins the memory story: audit state lives in a
// disk spill store with a fixed hydration window, so peak heap tracks the
// window, not the population.
//
// The checks behind "soak gate: PASS" (CI runs this in -quick mode):
//   - per-tick latency does not grow as the run progresses (flatness),
//   - doubling the population at constant due/tick does not grow tick
//     latency past the scaling threshold (O(due), not O(total)),
//   - peak heap stays under a ceiling sized to the hydration window,
//   - the spill store wrote one record per engagement (paging writes nothing),
//   - a settled round allocates under a fixed ceiling (no per-block copy of
//     the chain's retained history, which tick latency at one Retention
//     cannot see).
func runSoak(ctx *expCtx) error {
	type sizing struct {
		label       string
		engagements int
		interval    uint64
		window      int
	}
	var sizes [2]sizing
	var heapCeiling uint64
	switch {
	case ctx.soakN > 0:
		// -n scales the profile: populations n/2 and n, stagger windows
		// chosen so both wake ~1024 engagements per tick (constant due/tick
		// is what makes the halved run a valid O(due) baseline), and a heap
		// ceiling that grows with the always-resident per-engagement index
		// (~4 KB each: registry entry, spill index, contract state).
		iv := func(e int) uint64 {
			if v := uint64(e / 1024); v > 64 {
				return v
			}
			return 64
		}
		sizes = [2]sizing{
			{soakLabel(ctx.soakN / 2), ctx.soakN / 2, iv(ctx.soakN / 2), 1024},
			{soakLabel(ctx.soakN), ctx.soakN, iv(ctx.soakN), 1024},
		}
		heapCeiling = uint64(ctx.soakN) * (4 << 10)
		if heapCeiling < 1<<30 {
			heapCeiling = 1 << 30
		}
	case ctx.quick:
		sizes = [2]sizing{
			{"5k", 5_000, 64, 512},
			{"10k", 10_000, 128, 512},
		}
		heapCeiling = 256 << 20
	default:
		sizes = [2]sizing{
			{"50k", 50_000, 128, 1024},
			{"100k", 100_000, 256, 1024},
		}
		heapCeiling = 1 << 30
	}

	const (
		maxFlatness = 2.0 // per-tick latency growth across one run
		maxScaling  = 2.0 // busy-tick latency growth when the population doubles
		// maxRoundBytes caps what Scheduler.Run allocates per settled round,
		// spill store on (hydrating a prover is most of it). Midway between
		// the -quick 10k readings on either side of the change that stopped
		// the chain copying its retained window at every block: 21 504 B
		// before, 10 259 B after; 50k/100k read 24 300 and 10 460.
		maxRoundBytes = 16_000
	)

	// SoakConfig's default of two rounds per engagement is what every run
	// below settles.
	roundsOf := func(rep *sched.SoakReport) uint64 { return 2 * uint64(rep.Engagements) }

	var reports [2]*sched.SoakReport
	for i, sz := range sizes {
		dir, err := os.MkdirTemp("", "soak-spill-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		// The journal rides along so the CI soak gates O(due) ticks and the
		// memory ceiling with durability on — the configuration a
		// production auditor would actually run. The run is instrumented:
		// the journal line below reads from the metrics registry.
		rep, err := sched.RunSoak(sched.SoakConfig{
			Engagements:     sz.engagements,
			Interval:        sz.interval,
			Parallelism:     ctx.workers,
			SpillDir:        dir,
			SpillWindow:     sz.window,
			JournalDir:      filepath.Join(dir, "journal"),
			CheckpointEvery: 64,
			Registry:        obs.NewRegistry(),
			Logf:            func(format string, args ...any) { ctx.printf(format+"\n", args...) },
		})
		if err != nil {
			return err
		}
		reports[i] = rep
		ctx.printf("%-6s %7d engagements  %4d ticks  due/tick ~%-4d  busy median %-10v  p99 %-10v  flatness %.2f  heap peak %d MB  rss peak %d MB  spills %d  hydrates %d\n",
			sz.label, rep.Engagements, rep.Ticks, sz.engagements/int(sz.interval),
			rep.BusyMedian().Round(10*time.Microsecond), rep.TickP99.Round(10*time.Microsecond),
			rep.FlatnessRatio, rep.HeapPeak>>20, rep.RSSPeakKB>>10, rep.Spill.Spills, rep.Spill.Hydrates)
		rounds := roundsOf(rep)
		ctx.printf("%-6s allocated per settled round: %d B in %.1f mallocs\n",
			sz.label, rep.RunAllocBytes/rounds, float64(rep.RunMallocs)/float64(rounds))
		jAppends := counterValue(rep.Registry, "dsn_journal_appends_total")
		jBytes := counterValue(rep.Registry, "dsn_journal_bytes_total")
		jWrites := counterValue(rep.Registry, "dsn_journal_writes_total")
		jFsyncs := counterValue(rep.Registry, "dsn_journal_fsyncs_total")
		jCheckpoints := counterValue(rep.Registry, "dsn_journal_checkpoints_total")
		ctx.printf("%-6s journal: %d appends, %d bytes, %d writes, %d fsyncs, %d checkpoints (%d B, %.3f fsyncs per settled round)\n",
			sz.label, jAppends, jBytes, jWrites, jFsyncs,
			jCheckpoints, jBytes/rounds, float64(jFsyncs)/float64(rounds))
		ctx.printf("%-6s tick-latency deciles (median per run-tenth):", sz.label)
		for _, d := range rep.TickMedians {
			ctx.printf(" %v", d.Round(10*time.Microsecond))
		}
		ctx.printf("\n")
	}

	var failures []string
	for i, rep := range reports {
		if rep.FlatnessRatio > maxFlatness {
			failures = append(failures, fmt.Sprintf(
				"%s: per-tick latency grew %.2fx across the run (limit %.1fx)",
				sizes[i].label, rep.FlatnessRatio, maxFlatness))
		}
		if rep.HeapPeak > heapCeiling {
			failures = append(failures, fmt.Sprintf(
				"%s: heap peak %d MB exceeds the %d MB ceiling",
				sizes[i].label, rep.HeapPeak>>20, heapCeiling>>20))
		}
		if perRound := rep.RunAllocBytes / roundsOf(rep); perRound > maxRoundBytes {
			failures = append(failures, fmt.Sprintf(
				"%s: %d B allocated per settled round exceeds the %d B ceiling",
				sizes[i].label, perRound, maxRoundBytes))
		}
		if rep.Spill.Spills != uint64(rep.Engagements) {
			failures = append(failures, fmt.Sprintf(
				"%s: %d spill records for %d engagements: a record was written more than once",
				sizes[i].label, rep.Spill.Spills, rep.Engagements))
		}
	}
	small, large := reports[0].BusyMedian(), reports[1].BusyMedian()
	if small > 0 {
		if ratio := float64(large) / float64(small); ratio > maxScaling {
			failures = append(failures, fmt.Sprintf(
				"busy tick latency scaled %.2fx when the population doubled at constant due/tick (limit %.1fx)",
				ratio, maxScaling))
		} else {
			ctx.printf("scaling: %s -> %s busy median %v -> %v (%.2fx at constant due/tick)\n",
				sizes[0].label, sizes[1].label,
				small.Round(10*time.Microsecond), large.Round(10*time.Microsecond), ratio)
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			ctx.printf("soak gate: %s\n", f)
		}
		return fmt.Errorf("soak gate: FAIL (%d check(s))", len(failures))
	}
	ctx.printf("soak gate: PASS\n")
	return nil
}

// soakLabel renders a population size as "500k" / "1M" style shorthand.
func soakLabel(n int) string {
	if n >= 1_000_000 && n%1_000_000 == 0 {
		return fmt.Sprintf("%dM", n/1_000_000)
	}
	if n >= 1_000 {
		return fmt.Sprintf("%dk", n/1_000)
	}
	return fmt.Sprintf("%d", n)
}

// counterValue reads one unlabeled counter series out of a registry
// snapshot; absent registries and absent families read as 0.
func counterValue(reg *obs.Registry, name string) uint64 {
	if reg == nil {
		return 0
	}
	for _, s := range reg.Snapshot() {
		if s.Name == name && len(s.Labels) == 0 {
			return uint64(s.Value)
		}
	}
	return 0
}
