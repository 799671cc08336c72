package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/dsnaudit/sched"
	"repro/internal/obs"
)

// soakSpec sizes sched_soak: sched.RunSoak as it ships (TrustingVerifier,
// canned proofs, one in-process provider), so wake queues, journal and chain
// bookkeeping do all the work and the crypto none. Audit state stays resident
// in the timed cycles: with RunSoak's spill store on, paging provers through
// disk is 95% of a round's cost and hides the scheduler and journal this
// workload exists to judge, and its file churn entangled with the journal's
// fsyncs swings wall time 2x with the host disk (README.md, "Measured
// noise"). Traced runs measure the spill store in one extra cycle.
type soakSpec struct {
	cycles            int     // independent RunSoak calls per run; each has its own deploy phase
	engagementsPerSec float64 // engagements per cycle per requested second of measuring
	rounds            int
	interval          uint64
	shards            int
	spillPerSec       float64 // engagements of the traced run's spill cycle, per requested second
	spillWindow       int     // provers that cycle keeps resident
	host              hostShares
}

// soakMode says which of RunSoak's two durable stores a cycle turns on.
type soakMode struct{ journal, spill bool }

func (s soakSpec) engagements(seconds float64) int {
	if n := int(s.engagementsPerSec*seconds + 0.5); n > 50 {
		return n
	}
	return 50
}

// soakCycle is what one RunSoak call contributed.
type soakCycle struct {
	report  *sched.SoakReport
	setup   time.Duration // the call's wall time minus the scheduler run
	cpu     time.Duration // process CPU from the first tick to the call's return
	gas     float64       // chain totals over the same window
	bytes   float64
	tickMs  []float64 // tick intervals over ticks that woke at least one engagement
	ckptP50 float64
}

// runSoakCycle runs one soak. The registry is attached on untraced runs too:
// RunSoak owns its chain and shows gas and bytes only through it. It is the
// program's own instrumentation and the same on every commit measured.
func runSoakCycle(cfg runConfig, spec soakSpec, cycle int, mode soakMode) (*soakCycle, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "soak-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	c := &soakCycle{}
	var cpu0 time.Duration
	var gas0, bytes0 float64
	var last time.Time
	var lastWoken uint64
	sc := sched.SoakConfig{
		Engagements:     spec.engagements(cfg.seconds),
		Rounds:          spec.rounds,
		Interval:        spec.interval,
		Shards:          spec.shards,
		Parallelism:     cores,
		Seed:            fmt.Sprintf("bench-%d-%d", cfg.seed, cycle),
		Registry:        reg,
		CheckpointEvery: ckptEvery,
		Trace: func(_ uint64, woken uint64) {
			now := time.Now()
			if last.IsZero() {
				cpu0 = cpuTime()
				gas0 = counterSum(reg, "dsn_chain_gas_total")
				bytes0 = counterSum(reg, "dsn_chain_bytes_total")
			} else if woken > lastWoken {
				c.tickMs = append(c.tickMs, ms(now.Sub(last)))
			}
			last, lastWoken = now, woken
		},
	}
	if mode.spill {
		sc.Engagements = int(spec.spillPerSec*cfg.seconds + 0.5)
		sc.SpillDir = dir + "/spill"
		sc.SpillWindow = spec.spillWindow
	}
	if mode.journal {
		sc.JournalDir = dir + "/journal"
		sc.JournalShards = journalShard
		sc.JournalFlushEvery = flushEvery
	}
	start := time.Now()
	rep, err := sched.RunSoak(sc)
	if err != nil {
		return nil, fmt.Errorf("soak cycle %d: %w", cycle, err)
	}
	c.report = rep
	c.setup = time.Since(start) - rep.Elapsed
	c.cpu = cpuTime() - cpu0
	c.gas = counterSum(reg, "dsn_chain_gas_total") - gas0
	c.bytes = counterSum(reg, "dsn_chain_bytes_total") - bytes0
	c.ckptP50 = checkpointP50(reg)
	return c, nil
}

func runSoak(cfg runConfig, spec soakSpec) (*result, error) {
	res := newResult()
	var mem *memMeter
	if cfg.trace {
		mem = startMemMeter()
	}
	var setups, tickMs, ckpt []float64
	var elapsed, cpu time.Duration
	var rounds, gas, bytes, ticks float64
	var jr sched.JournalStats
	var st sched.Stats
	var perSec, p50, p90, cpuPerOp []float64 // one value per cycle
	// The host is sampled between cycles, and each sample collects the heap
	// first, so each cycle starts from a collected one: left to the next
	// cycle, the previous one's 100 MiB of garbage costs it a third of its CPU
	// time, and how much of it is what varied most between runs.
	host := phase{share: spec.host.timed}
	host.begin()
	for i := 0; i < spec.cycles; i++ {
		c, err := runSoakCycle(cfg, spec, i, soakMode{journal: true})
		if err != nil {
			return nil, err
		}
		host.sample()
		rep := c.report
		want := uint64(rep.Engagements * spec.rounds)
		res.attempted += int(want)
		if rep.Sched.Challenges != want {
			res.fail("soak cycle %d: %d challenges, want %d", i, rep.Sched.Challenges, want)
		}
		if rep.Sched.Live != 0 {
			res.fail("soak cycle %d: %d engagements still live", i, rep.Sched.Live)
		}
		if rep.Journal.Appends < want {
			res.fail("soak cycle %d: %d journal appends for %d rounds", i, rep.Journal.Appends, want)
		}
		setups = append(setups, c.setup.Seconds())
		perSec = append(perSec, float64(want)/rep.Elapsed.Seconds())
		p50 = append(p50, percentile(c.tickMs, 50))
		p90 = append(p90, percentile(c.tickMs, 90))
		cpuPerOp = append(cpuPerOp, ms(c.cpu)/float64(want))
		tickMs = append(tickMs, c.tickMs...)
		ckpt = append(ckpt, c.ckptP50)
		elapsed += rep.Elapsed
		cpu += c.cpu
		rounds += float64(want)
		gas += c.gas
		bytes += c.bytes
		ticks += float64(rep.Ticks)
		jr.Appends += rep.Journal.Appends
		jr.Bytes += rep.Journal.Bytes
		jr.Writes += rep.Journal.Writes
		jr.Fsyncs += rep.Journal.Fsyncs
		jr.Checkpoints += rep.Journal.Checkpoints
		st.Deferrals += rep.Sched.Deferrals
		st.Retries += rep.Sched.Retries
		st.Overloads += rep.Sched.Overloads
	}
	// The cycles are alike, so each number is the median over them and a
	// cycle the host disturbed drops out; then at the reference speed, by the
	// run's slowness (refclock.go). The soak does no pairing arithmetic and
	// follows the multiplication kernel least of the workloads, within one
	// state of the host not at all, but between its states it does.
	scale := host.scale()
	res.setN("setup_s", median(setups)/math.Pow(host.slowness(), spec.host.setup), len(setups))
	res.setN("throughput_per_s", median(perSec)*scale, int(rounds))
	res.setN("latency_ms_p50", median(p50)/scale, len(tickMs))
	res.setN("latency_ms_p90", median(p90)/scale, len(tickMs))
	res.setN("cpu_ms_per_op", median(cpuPerOp)/scale, int(rounds))
	host.describe(res, median(perSec), median(cpuPerOp), median(p50), median(p90))
	res.set("gas_per_op", gas/rounds)
	res.set("chain_bytes_per_op", bytes/rounds)
	if !cfg.trace {
		return res, nil
	}
	md := mem.stop()

	// The journal's tax: the same soak once more with no journal. The spill
	// store's cost: one more, smaller, with provers paged through disk.
	bare, err := runSoakCycle(cfg, spec, 0, soakMode{})
	if err != nil {
		return nil, err
	}
	perRound := func(c *soakCycle) float64 {
		return ms(c.report.Elapsed) / float64(c.report.Engagements*spec.rounds)
	}
	res.set("sched.journal_tax_pct", 100*(ms(elapsed)/rounds-perRound(bare))/perRound(bare))
	spill, err := runSoakCycle(cfg, spec, 0, soakMode{spill: true})
	if err != nil {
		return nil, err
	}
	sp := spill.report.Spill
	res.set("sched.spill_ms_per_round", perRound(spill)-perRound(bare))
	res.setN("sched.tick_ms_p50", percentile(tickMs, 50), len(tickMs))
	res.setN("sched.tick_ms_p90", percentile(tickMs, 90), len(tickMs))
	res.set("sched.ticks", ticks)
	res.set("sched.due_per_tick", rounds/float64(len(tickMs)+spec.cycles))
	res.set("sched.deferrals", float64(st.Deferrals))
	res.set("sched.retries", float64(st.Retries))
	res.set("sched.overloads", float64(st.Overloads))
	setJournal(res, jr, rounds)
	res.set("sched.checkpoint_ms_p50", median(ckpt))
	res.set("sched.spill_spills", float64(sp.Spills))
	res.set("sched.spill_hydrates", float64(sp.Hydrates))
	res.set("sched.spill_resident_peak", float64(sp.ResidentPeak))
	res.set("chain.blocks", ticks)
	res.set("chain.blocks_per_round", ticks/rounds)
	setProc(res, md, rounds)

	// RunSoak's audit state: 1 KiB files, s = 2, k = 2.
	p, err := runProbes(probeSpec{s: 2, fileBytes: 1024, k: 2}, cfg)
	if err != nil {
		return nil, err
	}
	p.into(res)
	cpuPer := ms(cpu) / rounds
	res.set("trace.unattributed_cpu_pct", 100)
	res.budget = fmt.Sprintf("budget, ms per settled round (%d rounds)\n"+
		"  cpu      measured (getrusage)                 %10.4f  100.0%%\n"+
		"           unattributed (scheduler, journal,    %10.4f  100.0%%\n"+
		"             chain: RunSoak exposes no seam between them)\n"+
		"  wall     measured                             %10.4f\n"+
		"           without the journal                  %10.4f  (journal tax %.1f%%)\n"+
		"           spill store on, %d resident: adds    %10.4f\n",
		int(rounds), cpuPer, cpuPer, ms(elapsed)/rounds, perRound(bare), res.metrics["sched.journal_tax_pct"],
		spec.spillWindow, res.metrics["sched.spill_ms_per_round"])
	return res, nil
}
