package main

import (
	"context"
	"fmt"

	"repro/dsnaudit/repair/repairtest"
)

// runChurn drives the repair subsystem's seeded churn scenario: a provider
// population under steady crash/join/corrupt pressure while sharded files
// stay under continuous per-share audit, every conviction repaired on the
// fly. The number the paper's durability story hangs on is the last column:
// zero unrecovered shares and every file's plaintext intact, as long as no
// file ever loses more than M shares between repairs. Full mode is the
// Section VI shape (hundreds of providers, a 2000-block horizon); -quick
// shrinks the population and horizon for a fast pass.
func runChurn(ctx *expCtx) error {
	cfg := repairtest.DefaultChurnConfig(42)
	if ctx.quick {
		cfg.Files = 2
		cfg.FileSize = 1024
		cfg.K, cfg.M = 2, 1
		cfg.Providers = 12
		cfg.Horizon = 80
		cfg.Rounds = 2
		cfg.KillEvery = 18
		cfg.JoinEvery = 25
		cfg.CorruptEvery = 33
		cfg.ChunkSize = 4
	}
	cfg.Workers = ctx.workers
	cfg.Log = func(format string, args ...any) { ctx.printf(format+"\n", args...) }

	rep, err := repairtest.RunChurn(context.Background(), cfg)
	if err != nil {
		return err
	}

	ctx.printf("\n%-34s %d files x %d bytes, %d-of-%d shares\n", "workload:",
		rep.Files, cfg.FileSize, cfg.K, cfg.K+cfg.M)
	ctx.printf("%-34s %d initial, +%d joined, -%d crashed, %d shares corrupted\n", "providers:",
		cfg.Providers, rep.ProvidersJoined, rep.ProvidersKilled, rep.SharesCheated)
	ctx.printf("%-34s %d over %d blocks (%d passed / %d failed rounds)\n", "engagements driven:",
		rep.Engagements, rep.FinalHeight, rep.RoundsPassed, rep.RoundsFailed)
	ctx.printf("%-34s %d lost, %d repaired, %d unrecovered, %d renewals\n", "durability:",
		rep.Stats.SharesLost, rep.Stats.SharesRepaired, rep.Stats.SharesUnrecovered, rep.Stats.Renewals)
	ctx.printf("%-34s %d bytes moved, repair latency avg %.1f / max %d blocks\n", "repair cost:",
		rep.Stats.BytesMoved, rep.AvgRepairLatency(), rep.LatencyBlocksMax)
	ctx.printf("%-34s %d/%d files reassemble from their current holders\n", "end-state retrieval:",
		rep.FilesIntact, rep.Files)
	if rep.Stats.SharesUnrecovered != 0 || rep.FilesIntact != rep.Files {
		return fmt.Errorf("durability violated: %s", rep.Summary())
	}
	ctx.printf("summary: %s\n", rep.Summary())
	return nil
}
