package dsnaudit_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/contract"
	"repro/internal/core"
)

// TestBatchedSettlementIsolatesCheater drives a block of 1 corrupt + 15
// honest proofs through the default batched verifier: exactly one
// engagement fails (individually slashed), all others settle as passed, and
// the block costs strictly fewer final exponentiations than per-proof
// settlement would.
func TestBatchedSettlementIsolatesCheater(t *testing.T) {
	// -race cares about interleavings, not batch width: -short halves the
	// block so the race CI pass stays fast; the full 1+15 shape runs in the
	// regular suite.
	n, bad := 16, 6
	if testing.Short() {
		n = 8
	}
	fx := newBlockFixture(t, n, 1, map[int]bool{bad: true})

	var stats core.BatchStats
	s := fx.run(t, sched.WithVerifier(&dsnaudit.BatchVerifier{Stats: &stats}))

	for i, e := range fx.engs {
		res, ok := s.Results()[e.ID()]
		if !ok {
			t.Fatalf("no result for %s", e.ID())
		}
		if res.Err != nil {
			t.Fatalf("engagement %d errored: %v", i, res.Err)
		}
		if i == bad {
			if res.Failed != 1 || res.Passed != 0 || res.State != contract.StateAborted {
				t.Errorf("cheater %d not slashed: %+v", i, res)
			}
		} else if res.Passed != 1 || res.Failed != 0 || res.State != contract.StateExpired {
			t.Errorf("honest engagement %d penalized: %+v", i, res)
		}
	}
	// Per-proof settlement needs one final exponentiation per proof (16);
	// the batched path pays 1 for the block plus 1 for the index-weighted
	// copy that names the cheater.
	if stats.FinalExps != 2 {
		t.Fatalf("batched settlement used %d final exps, want 2", stats.FinalExps)
	}
}

// TestVerifierParityRandomized draws each engagement of a two-round block
// fixture as a cheater with probability 1/4 (math/rand with fixed seeds, so
// a failing mask replays from its seed; the seeds give several cheaters in
// one block, a cheater first in it, and none). It drives the mask through
// the scheduler's batched verifier and through the reference driver
// (dsnaudit.DriveRounds), which settles each proof alone, and checks both
// reach the verdict the mask predicts: a cheater is ABORTED after its one
// failed round, individually slashed, and every honest engagement EXPIRES
// with every round passed.
func TestVerifierParityRandomized(t *testing.T) {
	n, rounds := 8, 2
	if testing.Short() {
		n = 4
	}
	for _, seed := range []int64{2, 3, 12} {
		rng := rand.New(rand.NewSource(seed))
		cheaters := make(map[int]bool)
		for i := 0; i < 8; i++ {
			if rng.Intn(4) == 0 && i < n {
				cheaters[i] = true
			}
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("cheater mask: %v", cheaters)

			seq := newBlockFixture(t, n, rounds, cheaters)
			for i, e := range seq.engs {
				passed, err := dsnaudit.DriveRounds(context.Background(), e, rounds)
				if err != nil {
					t.Fatalf("per-proof engagement %d: %v", i, err)
				}
				want := outcome{passed: rounds, state: contract.StateExpired}
				if cheaters[i] {
					want = outcome{passed: 0, state: contract.StateAborted}
				}
				if got := (outcome{passed: passed, state: e.Contract.State()}); got != want {
					t.Errorf("per-proof engagement %d: passed=%d state=%v, want passed=%d state=%v",
						i, got.passed, got.state, want.passed, want.state)
				}
			}

			fx := newBlockFixture(t, n, rounds, cheaters)
			var stats core.BatchStats
			s := fx.run(t, sched.WithVerifier(&dsnaudit.BatchVerifier{Stats: &stats}))
			for i, e := range fx.engs {
				res, ok := s.Results()[e.ID()]
				if !ok {
					t.Fatalf("no result for %s", e.ID())
				}
				if res.Err != nil {
					t.Fatalf("engagement %d errored: %v", i, res.Err)
				}
				if cheaters[i] {
					if res.Failed != 1 || res.Passed != 0 || res.State != contract.StateAborted {
						t.Errorf("cheater %d not slashed: %+v", i, res)
					}
				} else if res.Passed != rounds || res.Failed != 0 || res.State != contract.StateExpired {
					t.Errorf("honest engagement %d penalized: %+v", i, res)
				}
			}
			if stats.FinalExps < 1 {
				t.Fatal("no batched verification recorded")
			}
		})
	}
}

// settleLimbo deploys one two-round engagement and walks its first round
// manually into SETTLE: the proof is submitted but its verdict is still
// pending, as a scheduler canceled between submission and settlement would
// leave it.
func settleLimbo(t *testing.T) (*fixture, *dsnaudit.Engagement) {
	t.Helper()
	fx := newBlockFixture(t, 1, 2, nil)
	eng := fx.engs[0]
	for fx.net.Chain.Height() < eng.Contract.TriggerHeight() {
		fx.net.Chain.MineBlock()
	}
	issued := contract.IssueChallenges([]*contract.Contract{eng.Contract})[0]
	if issued.Err != nil {
		t.Fatal(issued.Err)
	}
	proof, err := eng.Provider.Respond(context.Background(), eng.ID(), issued.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Contract.SubmitProof(eng.Provider.Address(), proof); err != nil {
		t.Fatal(err)
	}
	if eng.Contract.State() != contract.StateSettle {
		t.Fatalf("state %v, want SETTLE", eng.Contract.State())
	}
	return fx, eng
}

// TestSchedulerAdoptsPendingSettlement proves an engagement adopted with a
// proof already pending is settled on the scheduler's first tick and then
// driven to completion.
func TestSchedulerAdoptsPendingSettlement(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx, eng := settleLimbo(t)
		s := fx.run(t, shards)
		res, ok := s.Results()[eng.ID()]
		if !ok {
			t.Fatal("no result")
		}
		if res.Passed != 2 || res.State != contract.StateExpired {
			t.Fatalf("after adoption: %+v", res)
		}
	})
}

// mismatchVerifier violates the SettleBlock contract by dropping a result.
type mismatchVerifier struct{}

func (mismatchVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	results := contract.SettleBatchAt(cs, height, workers, nil)
	return results[:len(results)-1], nil
}

// reorderVerifier violates the SettleBlock contract by returning the right
// number of results in the wrong order.
type reorderVerifier struct{}

func (reorderVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	results := contract.SettleBatchAt(cs, height, workers, nil)
	results[0], results[len(results)-1] = results[len(results)-1], results[0]
	return results, nil
}

// TestVerifierReorderSurfaces pins the order check: a verifier returning
// out-of-order results fails the Run instead of mis-attributing verdicts.
func TestVerifierReorderSurfaces(t *testing.T) {
	testBrokenVerifier(t, reorderVerifier{})
}

// TestVerifierMismatchSurfaces pins the ErrVerifierMismatch sentinel: a
// broken custom verifier fails the Run instead of silently dropping
// engagements.
func TestVerifierMismatchSurfaces(t *testing.T) {
	testBrokenVerifier(t, mismatchVerifier{})
}

func testBrokenVerifier(t *testing.T, v dsnaudit.Verifier) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		s := newBlockFixture(t, 2, 1, nil).scheduler(t, shards, sched.WithVerifier(v))
		if err := s.Run(context.Background()); !errors.Is(err, dsnaudit.ErrVerifierMismatch) {
			t.Fatalf("Run returned %v, want ErrVerifierMismatch", err)
		}
	})
}
