package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/core"
)

// runScheduler measures the many-to-many deployment of Section III-B: N
// independent audit contracts on one chain, driven first sequentially
// (Engagement.RunAll, one at a time) and then concurrently by the Scheduler
// (proof generation fanned out to a worker pool) under both settlement
// strategies — per-proof verification and the default batched settlement
// that shares one final exponentiation per block (Section VII-D). The
// interesting numbers are the wall-clock speedup at equal on-chain work and
// the settlement gas the batching shaves off every round.
func runScheduler(ctx *expCtx) error {
	owners := 6
	rounds := 3
	if ctx.quick {
		owners, rounds = 3, 2
	}
	const s, k = 8, 20

	build := func() (*dsnaudit.Network, []*dsnaudit.Engagement, error) {
		net, err := dsnaudit.NewNetwork()
		if err != nil {
			return nil, nil, err
		}
		funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18))
		for i := 0; i < 16; i++ {
			if _, err := net.AddProvider(fmt.Sprintf("sp-%02d", i), funds); err != nil {
				return nil, nil, err
			}
		}
		engs := make([]*dsnaudit.Engagement, owners)
		for i := range engs {
			owner, err := dsnaudit.NewOwner(net, fmt.Sprintf("owner-%d", i), s, funds)
			if err != nil {
				return nil, nil, err
			}
			data := make([]byte, 8<<10)
			rand.Read(data)
			sf, err := owner.Outsource(fmt.Sprintf("archive-%d", i), data, 3, 7)
			if err != nil {
				return nil, nil, err
			}
			terms := dsnaudit.DefaultTerms(rounds)
			terms.ChallengeSize = k
			engs[i], err = owner.Engage(sf, sf.Holders[0], terms)
			if err != nil {
				return nil, nil, err
			}
		}
		return net, engs, nil
	}

	bg := context.Background()

	// Sequential baseline: one engagement at a time, self-mined clock.
	_, seqEngs, err := build()
	if err != nil {
		return err
	}
	seqStart := time.Now()
	seqPassed := 0
	for _, e := range seqEngs {
		p, err := e.RunAll(bg)
		if err != nil {
			return err
		}
		seqPassed += p
	}
	seqTime := time.Since(seqStart)

	// Scheduler: same workload, one block clock, pooled proof generation.
	// Driven twice: per-proof settlement and batched settlement.
	runSched := func(opts ...sched.Option) (time.Duration, int, uint64, error) {
		net, engs, err := build()
		if err != nil {
			return 0, 0, 0, err
		}
		s := sched.NewScheduler(net, opts...)
		for _, e := range engs {
			if err := s.Add(e); err != nil {
				return 0, 0, 0, err
			}
		}
		start := time.Now()
		if err := s.Run(bg); err != nil {
			return 0, 0, 0, err
		}
		elapsed := time.Since(start)
		passed := 0
		for _, res := range s.Results() {
			passed += res.Passed
		}
		var settleGas uint64
		rounds := 0
		for _, e := range engs {
			for _, rec := range e.Contract.Records() {
				settleGas += rec.SettleGas
				rounds++
			}
		}
		if rounds > 0 {
			settleGas /= uint64(rounds)
		}
		return elapsed, passed, settleGas, nil
	}

	workers := ctx.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ppTime, ppPassed, ppGas, err := runSched(sched.WithVerifier(dsnaudit.PerProofVerifier{}),
		sched.WithParallelism(workers))
	if err != nil {
		return err
	}
	// Serial vs parallel pipeline at equal work: parallelism 1 runs the
	// same two-stage pipeline with one prove worker and serial
	// verification, so the delta is pure multi-core speedup.
	b1Time, b1Passed, _, err := runSched(sched.WithParallelism(1))
	if err != nil {
		return err
	}
	var stats core.BatchStats
	bTime, bPassed, bGas, err := runSched(
		sched.WithVerifier(&dsnaudit.BatchVerifier{Stats: &stats}),
		sched.WithParallelism(workers))
	if err != nil {
		return err
	}

	ctx.printf("%d engagements x %d rounds (s=%d, k=%d) on one chain, %d-way pipeline (host: %d cores):\n",
		owners, rounds, s, k, workers, runtime.NumCPU())
	ctx.printf("%-38s %-12s %-8s %-16s\n", "driver", "wall clock", "passed", "settle gas/round")
	ctx.printf("%-38s %-12s %-8d %-16s\n", "sequential RunAll", fmtDur(seqTime), seqPassed, "-")
	ctx.printf("%-38s %-12s %-8d %-16d\n", "Scheduler (per-proof settlement)", fmtDur(ppTime), ppPassed, ppGas)
	ctx.printf("%-38s %-12s %-8d %-16s\n", "Scheduler (batched, parallelism=1)", fmtDur(b1Time), b1Passed, "-")
	ctx.printf("%-38s %-12s %-8d %-16d\n",
		fmt.Sprintf("Scheduler (batched, parallelism=%d)", workers), fmtDur(bTime), bPassed, bGas)
	ctx.printf("pipeline speedup, serial -> %d workers: %.2fx wall clock (%s -> %s)\n",
		workers, float64(b1Time)/float64(bTime), fmtDur(b1Time), fmtDur(bTime))
	ctx.printf("scheduler speedup over sequential: %.2fx (proof generation and settlement overlap)\n",
		float64(seqTime)/float64(bTime))
	ctx.printf("batched settlement: %d final exps / %d Miller loops for %d settled proofs "+
		"(a block costs 2K+1 loops for its K owner keys; per-proof needs 3 loops and one final exp each)\n",
		stats.FinalExps, stats.MillerLoops, bPassed)
	if seqPassed != ppPassed || seqPassed != bPassed || seqPassed != b1Passed {
		return fmt.Errorf("drivers disagree: sequential %d, per-proof %d, batched serial %d, batched %d",
			seqPassed, ppPassed, b1Passed, bPassed)
	}
	return nil
}
