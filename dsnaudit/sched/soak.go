package sched

import (
	"context"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/dsnaudit"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/obs"
)

// SoakConfig sizes a scheduler soak: a population of engagements far larger
// than any working set, driven to completion while per-tick latency and
// memory are measured.
type SoakConfig struct {
	Engagements int    // live engagements (default 100_000)
	Rounds      int    // audit rounds per engagement (default 2)
	Interval    uint64 // trigger stagger window in blocks; due/tick ≈ Engagements/Interval (default 256)
	Shards      int    // scheduler shards (default 16)
	Parallelism int    // settlement parallelism (default GOMAXPROCS)
	SpillDir    string // audit-state spill directory; "" keeps everything resident
	SpillWindow int    // hydrated provers kept resident when spilling (default 1024)
	Seed        string // beacon seed (default "soak")

	// JournalDir, when set, runs the soak with the durability journal
	// enabled — records are appended and checkpoints are cut at
	// CheckpointEvery ticks — so the soak measures the journaled tick cost,
	// not just the in-memory one.
	JournalDir        string
	CheckpointEvery   int // checkpoint cadence in ticks when journaling (default 64)
	JournalShards     int // journal shard files (default 4 — every barrier fsync pays per shard)
	JournalFlushEvery int // journal synced-flush cadence in ticks (default 64)

	// Registry, when set, instruments the whole soak — scheduler, journal,
	// spill store and chain all register their metric families on it — so
	// the run's accounting is readable from the outside and the
	// instrumentation overhead itself is measurable (nil = bare run).
	Registry *obs.Registry

	// Logf, when set, receives setup/progress lines.
	Logf func(format string, args ...any)

	// Trace, when set, receives (height, cumulative woken) per tick.
	Trace func(height uint64, woken uint64)
}

func (c *SoakConfig) applyDefaults() {
	if c.Engagements <= 0 {
		c.Engagements = 100_000
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Interval == 0 {
		c.Interval = 256
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.SpillWindow <= 0 {
		c.SpillWindow = 1024
	}
	if c.Seed == "" {
		c.Seed = "soak"
	}
	if c.JournalShards <= 0 {
		c.JournalShards = 4
	}
	if c.JournalFlushEvery <= 0 {
		c.JournalFlushEvery = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// SoakReport is what a soak run measured.
type SoakReport struct {
	Engagements int
	Ticks       uint64
	Elapsed     time.Duration

	// TickMedians[i] is the median tick latency of the i-th tenth of the
	// run, in time order. A scheduler whose tick cost depends on total
	// engagement count — a linear scan — shows it here; an O(due) scheduler
	// stays flat while engagements retire.
	TickMedians [10]time.Duration
	TickP99     time.Duration
	// FlatnessRatio is median(last tenth) / median(first tenth).
	FlatnessRatio float64

	HeapPeak  uint64 // sampled HeapAlloc high-water mark, bytes
	RSSPeakKB uint64 // VmHWM from /proc/self/status; 0 when unavailable

	// What Scheduler.Run allocated, from first tick to last: a settled
	// round's bookkeeping must cost the same however much history the chain
	// retains, and a per-block copy of that history shows here first.
	RunAllocBytes uint64
	RunMallocs    uint64

	Spill   SpillStats   // zero-valued when SpillDir was ""
	Journal JournalStats // zero-valued when JournalDir was ""
	Sched   Stats

	// Registry echoes SoakConfig.Registry so callers can read the run's
	// metric families back (nil when the run was bare).
	Registry *obs.Registry
}

// BusyMedian is the median tick latency while the full population is
// still live: the median of the run's first-half decile medians. The
// back half of a soak retires engagements, so its ticks measure a
// shrinking due set.
func (r *SoakReport) BusyMedian() time.Duration {
	s := append([]time.Duration(nil), r.TickMedians[:5]...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

const (
	// soakVerifyGas is the modeled settlement gas; its exact value only feeds
	// the chain's accounting, which the soak does not assert on.
	soakVerifyGas = 563_000

	soakAuditBytes  = 1024 // audited payload per engagement
	soakSampleEvery = 32   // heap-sample cadence in ticks
	// soakRegisterBatch registrations share one setup block: large batches
	// speed up the deploy phase at scale, and height drift stays a handful
	// of blocks against the stagger window.
	soakRegisterBatch = 8192
)

// soakResponder answers challenges with canned proof bytes after touching
// the provider's audit state. The touch is the point: every challenge
// drives a ProverStore lookup, so a spill-backed store pages audit state
// exactly as it would for real proving — while the proving itself (pairing
// work the cryptographic benchmarks cover) stays out of the tick-latency
// measurement.
type soakResponder struct {
	node *dsnaudit.ProviderNode
}

func (r soakResponder) Respond(_ context.Context, addr chain.Address, _ *core.Challenge) ([]byte, error) {
	if _, ok := r.node.Prover(addr); !ok {
		return nil, fmt.Errorf("sched: soak responder: no audit state for %s", addr)
	}
	return make([]byte, core.PrivateProofSize), nil
}

// RunSoak drives cfg.Engagements staggered engagements to completion
// through a sharded scheduler with trusted settlement, measuring per-tick
// latency and peak memory. Contracts are deployed through the real chain
// machinery (deposits, triggers, per-round payments all execute); the
// expensive per-engagement work real deployments amortize elsewhere —
// owner-side Setup and provider-side proving — is replaced by one shared
// audit state and canned proofs, so what the soak measures is scheduling.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	cfg.applyDefaults()
	start := time.Now()

	b, err := beacon.NewTrusted([]byte(cfg.Seed))
	if err != nil {
		return nil, err
	}
	chainCfg := chain.DefaultConfig()
	chainCfg.BlockGasLimit = 1 << 62 // setup bursts and ~N/Interval proofs per block must fit
	chainCfg.Retention = 64
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b), dsnaudit.WithChainConfig(chainCfg))
	if err != nil {
		return nil, err
	}
	net.Chain.Instrument(cfg.Registry)

	// Funds: every engagement escrows Rounds wei from the owner (one wei
	// per round) and one wei from the provider.
	funds := big.NewInt(int64(cfg.Engagements) * int64(cfg.Rounds+2))
	owner, err := dsnaudit.NewOwner(net, "soak-owner", 2, funds)
	if err != nil {
		return nil, err
	}
	provider, err := net.AddProvider("soak-provider", funds)
	if err != nil {
		return nil, err
	}
	var spill *SpillStore
	if cfg.SpillDir != "" {
		spill, err = NewSpillStore(cfg.SpillDir, cfg.SpillWindow)
		if err != nil {
			return nil, err
		}
		spill.Instrument(cfg.Registry)
		provider.SetProverStore(spill)
	}

	// One shared audit state: the population differs in contracts and
	// triggers, not in bytes.
	data := make([]byte, soakAuditBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}
	ef, err := core.EncodeFile(data, 2)
	if err != nil {
		return nil, err
	}
	auths, err := core.Setup(owner.AuditSK, ef)
	if err != nil {
		return nil, err
	}

	schedOpts := []Option{
		WithShards(cfg.Shards),
		WithParallelism(cfg.Parallelism),
		WithVerifier(TrustingVerifier{}),
		WithAutoCompact(),
		WithMetrics(cfg.Registry),
	}
	var jnl *Journal
	if cfg.JournalDir != "" {
		jnl, err = OpenJournal(cfg.JournalDir, cfg.JournalShards)
		if err != nil {
			return nil, err
		}
		schedOpts = append(schedOpts, WithJournal(jnl), WithJournalFlushEvery(cfg.JournalFlushEvery))
		if cfg.CheckpointEvery > 0 {
			schedOpts = append(schedOpts, WithCheckpointEvery(cfg.CheckpointEvery))
		}
	}
	sched := NewScheduler(net, schedOpts...)
	// Retired audit state is reclaimed the moment its engagement ends —
	// resident memory tracks the live window, not history.
	sched.OnOutcome(func(o dsnaudit.Outcome) {
		_ = provider.DropAuditState(o.ID)
	})

	responder := soakResponder{node: provider}
	cfg.Logf("soak: deploying %d engagements (stagger window %d blocks)", cfg.Engagements, cfg.Interval)
	for i := 0; i < cfg.Engagements; i++ {
		addr := chain.Address(fmt.Sprintf("audit:soak:%d", i))
		agreement := contract.Agreement{
			Owner:           owner.Address(),
			Provider:        provider.Address(),
			Rounds:          cfg.Rounds,
			ChallengeSize:   2,
			RoundInterval:   8 + uint64(i)%cfg.Interval,
			ProofDeadline:   16,
			PaymentPerRound: big.NewInt(1),
			OwnerDeposit:    big.NewInt(int64(cfg.Rounds)),
			ProviderDeposit: big.NewInt(1),
			NumChunks:       ef.NumChunks(),
			PublicKey:       owner.AuditSK.Pub,
		}
		k, err := contract.Deploy(net.Chain, addr, agreement, net.Beacon, soakVerifyGas)
		if err != nil {
			return nil, fmt.Errorf("deploy %d: %w", i, err)
		}
		if err := k.Negotiate(); err != nil {
			return nil, err
		}
		if err := k.Acknowledge(provider.Address(), true); err != nil {
			return nil, err
		}
		if err := k.Freeze(); err != nil {
			return nil, err
		}
		if err := provider.InstallAuditState(addr, owner.AuditSK.Pub, ef, auths); err != nil {
			return nil, err
		}
		if err := sched.Add(net.AdoptEngagement(k, owner, provider, responder)); err != nil {
			return nil, err
		}
		// Drain the setup transaction burst; height drift is a handful of
		// blocks against a stagger window of hundreds.
		if i%soakRegisterBatch == soakRegisterBatch-1 {
			net.Chain.MineBlock()
		}
	}
	net.Chain.MineBlock()
	cfg.Logf("soak: setup done in %v, running", time.Since(start).Round(time.Millisecond))

	var (
		lastTick  time.Time
		latencies []time.Duration
		heapPeak  uint64
	)
	sched.OnBlock(func(h uint64) {
		if cfg.Trace != nil {
			cfg.Trace(h, sched.Stats().Woken)
		}
		now := time.Now()
		// Warm-up ticks before the first staggered trigger wake nobody and
		// cost microseconds; they would poison the first-decile baseline
		// the flatness ratio divides by.
		if sched.Stats().Woken == 0 {
			lastTick = now
			return
		}
		if !lastTick.IsZero() {
			latencies = append(latencies, now.Sub(lastTick))
		}
		lastTick = now
		if len(latencies)%soakSampleEvery == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > heapPeak {
				heapPeak = ms.HeapAlloc
			}
		}
	})

	var ms0, ms runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runStart := time.Now()
	if err := sched.Run(context.Background()); err != nil {
		return nil, err
	}
	elapsed := time.Since(runStart)

	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heapPeak {
		heapPeak = ms.HeapAlloc
	}

	rep := &SoakReport{
		Engagements: cfg.Engagements,
		Ticks:       sched.Stats().Ticks,
		Elapsed:     elapsed,
		HeapPeak:    heapPeak,
		RSSPeakKB:   readVmHWM(),
		Sched:       sched.Stats(),
		Registry:    cfg.Registry,

		RunAllocBytes: ms.TotalAlloc - ms0.TotalAlloc,
		RunMallocs:    ms.Mallocs - ms0.Mallocs,
	}
	if spill != nil {
		rep.Spill = spill.Stats()
	}
	if jnl != nil {
		rep.Journal = jnl.Stats()
		if err := jnl.Close(); err != nil {
			return nil, err
		}
	}
	if len(latencies) >= 20 {
		// Deciles and p99 are obs.Histogram quantile estimates over the
		// fine-grained duration scale (~10% interpolation error) — the same
		// estimator a scraped dsn_*_seconds histogram yields, so the
		// soak report and a live dashboard agree on methodology. The
		// flatness and scaling gates compare against 2.0x thresholds, far
		// outside that error.
		tenth := len(latencies) / 10
		for i := 0; i < 10; i++ {
			h := obs.NewHistogram(obs.DurationBuckets)
			for _, d := range latencies[i*tenth : (i+1)*tenth] {
				h.ObserveDuration(d)
			}
			rep.TickMedians[i] = time.Duration(h.Quantile(0.5) * float64(time.Second))
		}
		if rep.TickMedians[0] > 0 {
			rep.FlatnessRatio = float64(rep.TickMedians[9]) / float64(rep.TickMedians[0])
		}
		all := obs.NewHistogram(obs.DurationBuckets)
		for _, d := range latencies {
			all.ObserveDuration(d)
		}
		rep.TickP99 = time.Duration(all.Quantile(0.99) * float64(time.Second))
	}
	return rep, nil
}

// readVmHWM returns the process's peak resident set in KB from
// /proc/self/status, or 0 where that interface does not exist.
func readVmHWM() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}
