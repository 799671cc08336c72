package sched

import (
	"context"
	"testing"

	"repro/dsnaudit"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/obs"
)

// settledCounter wraps a Verifier and counts the contracts SettleBlock is
// handed. SettleBlock runs on the settlement goroutine alone, and Run joins
// it before returning, so the count needs no lock.
type settledCounter struct {
	inner   dsnaudit.Verifier
	settled int
}

func (v *settledCounter) SettleBlock(cs []*contract.Contract, h uint64, workers int) ([]contract.SettleResult, error) {
	v.settled += len(cs)
	return v.inner.SettleBlock(cs, h, workers)
}

// prepareRun drives the parity fixture to completion under v and returns
// the scheduler and how many proofs its prove workers prepared.
func prepareRun(t *testing.T, v dsnaudit.Verifier) (*Scheduler, uint64) {
	t.Helper()
	fx, err := buildCrashFixture("parity-seed", 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := NewScheduler(fx.net, WithParallelism(2), WithVerifier(v), WithMetrics(reg))
	for _, e := range fx.engs {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, sm := range reg.Snapshot() {
		if sm.Name == "dsn_sched_prepare_seconds" {
			return s, sm.Count
		}
	}
	t.Fatal("no dsn_sched_prepare_seconds series")
	return nil, 0
}

// TestFreshRunSettlesPreparedProofs pins where the per-item step runs in a
// fresh run: on the prove workers, so every contract reaches SettleBlock
// with its prepared item attached, the cheater's included.
func TestFreshRunSettlesPreparedProofs(t *testing.T) {
	stats := &core.BatchStats{}
	v := &settledCounter{inner: &dsnaudit.BatchVerifier{Stats: stats}}
	s, prepared := prepareRun(t, v)
	if v.settled == 0 || stats.Prepares != 0 {
		t.Fatalf("settlement prepared %d of the %d contracts it was handed", stats.Prepares, v.settled)
	}
	if proofs := s.Stats().Proofs; prepared != proofs || uint64(v.settled) != proofs {
		t.Fatalf("prepared %d, settled %d, proofs %d", prepared, v.settled, proofs)
	}
}

// TestTrustingRunPreparesNothing pins that a run whose verifier reads no
// proof prepares none: the soak's cost is the scheduler's alone.
func TestTrustingRunPreparesNothing(t *testing.T) {
	s, prepared := prepareRun(t, trustingVerifier{})
	if s.Stats().Proofs == 0 {
		t.Fatal("the run submitted no proof")
	}
	if prepared != 0 {
		t.Fatalf("a trusting run prepared %d proofs", prepared)
	}
}
