package repair_test

import (
	"context"
	"reflect"
	"testing"

	"repro/dsnaudit/repair/repairtest"
)

// quickChurn is a churn scenario small enough for every CI lane.
func quickChurn(seed int64) repairtest.ChurnConfig {
	return repairtest.ChurnConfig{
		Seed:          seed,
		Files:         2,
		FileSize:      1024,
		K:             2,
		M:             1,
		Providers:     12,
		Horizon:       80,
		Rounds:        2,
		KillEvery:     18,
		JoinEvery:     25,
		CorruptEvery:  33,
		ChallengeSize: 4,
		ChunkSize:     4,
	}
}

// TestChurnQuickSurvives: even the small scenario must end with every loss
// repaired and every file intact.
func TestChurnQuickSurvives(t *testing.T) {
	rep, err := repairtest.RunChurn(context.Background(), quickChurn(11))
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if rep.ProvidersKilled == 0 && rep.SharesCheated == 0 {
		t.Fatal("scenario injected no churn; the test pins nothing")
	}
	if rep.Stats.SharesUnrecovered != 0 {
		t.Fatalf("%d shares unrecovered:\n%s", rep.Stats.SharesUnrecovered, rep.Summary())
	}
	if rep.FilesIntact != rep.Files {
		t.Fatalf("only %d/%d files intact:\n%s", rep.FilesIntact, rep.Files, rep.Summary())
	}
}

// TestChurnDeterministic: identical seeds must produce identical reports —
// block-for-block, repair-for-repair. This is what makes churn failures
// debuggable and the CI smoke meaningful.
func TestChurnDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the churn scenario twice; skipped in -short")
	}
	a, err := repairtest.RunChurn(context.Background(), quickChurn(23))
	if err != nil {
		t.Fatal(err)
	}
	b, err := repairtest.RunChurn(context.Background(), quickChurn(23))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("summaries diverged for one seed:\n a: %s\n b: %s", a.Summary(), b.Summary())
	}
	if !reflect.DeepEqual(a.Repairs, b.Repairs) {
		t.Fatalf("repair records diverged for one seed:\n a: %+v\n b: %+v", a.Repairs, b.Repairs)
	}
	// And a different seed must actually change the run (the seed is live).
	c, err := repairtest.RunChurn(context.Background(), quickChurn(24))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() == c.Summary() {
		t.Fatal("different seeds produced identical runs; seeding is dead")
	}
}

// TestChurnThousandBlocks is the acceptance pin: a seeded run of at least
// 1000 blocks with providers joining, crashing and cheating throughout
// ends with zero unrecovered shares and every file bit-intact.
func TestChurnThousandBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-block churn; skipped in -short")
	}
	cfg := repairtest.ChurnConfig{
		Seed:          7,
		Files:         4,
		FileSize:      2048,
		K:             3,
		M:             2,
		Providers:     60,
		Horizon:       1000,
		Rounds:        3,
		KillEvery:     30,
		JoinEvery:     45,
		CorruptEvery:  70,
		ChallengeSize: 4,
		ChunkSize:     8,
		Log:           t.Logf,
	}
	rep, err := repairtest.RunChurn(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if rep.FinalHeight < 1000 {
		t.Fatalf("run ended at block %d, want >= 1000", rep.FinalHeight)
	}
	if rep.ProvidersKilled < 10 || rep.SharesCheated < 3 {
		t.Fatalf("churn pressure too low (killed=%d cheats=%d); the scenario is not stressing repair",
			rep.ProvidersKilled, rep.SharesCheated)
	}
	if rep.Stats.SharesUnrecovered != 0 {
		t.Fatalf("%d shares unrecovered:\n%s", rep.Stats.SharesUnrecovered, rep.Summary())
	}
	if rep.Stats.SharesRepaired != rep.Stats.SharesLost {
		t.Fatalf("repaired %d of %d losses:\n%s", rep.Stats.SharesRepaired, rep.Stats.SharesLost, rep.Summary())
	}
	if rep.RoundsFailed == 0 {
		t.Fatal("no audit ever convicted; the kills never hit a holder")
	}
	if rep.FilesIntact != rep.Files {
		t.Fatalf("only %d/%d files intact:\n%s", rep.FilesIntact, rep.Files, rep.Summary())
	}
	if rep.RepairsTimed == 0 || rep.LatencyBlocksMax == 0 {
		t.Fatalf("no repair latency measured: timed=%d max=%d", rep.RepairsTimed, rep.LatencyBlocksMax)
	}
}
