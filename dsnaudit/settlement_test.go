package dsnaudit_test

import (
	"context"
	"crypto/rand"
	"errors"
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
		res, ok := s.Result(e.ID())
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
	// the batched path pays 1 for the block plus O(log n) for bisecting to
	// the cheater.
	if stats.FinalExps >= n {
		t.Fatalf("batched settlement used %d final exps, per-proof needs only %d", stats.FinalExps, n)
	}
	if stats.FinalExps < 1 {
		t.Fatal("no batched verification recorded")
	}
}

// TestVerifierParityRandomized corrupts a random subset of engagements and
// drives two identically-built deployments — one with batched settlement,
// one per-proof — checking that every per-engagement verdict agrees.
func TestVerifierParityRandomized(t *testing.T) {
	n, rounds := 8, 2
	if testing.Short() {
		n = 4
	}
	var pick [8]byte
	if _, err := rand.Read(pick[:]); err != nil {
		t.Fatal(err)
	}
	cheaters := make(map[int]bool)
	for i, b := range pick[:n] {
		if b&3 == 0 { // each engagement cheats with probability 1/4
			cheaters[i] = true
		}
	}
	t.Logf("cheater mask: %v", cheaters)

	batched := resultsByID(newBlockFixture(t, n, rounds, cheaters).run(t)) // default verifier
	perProof := resultsByID(newBlockFixture(t, n, rounds, cheaters).run(t,
		sched.WithVerifier(dsnaudit.PerProofVerifier{})))

	if len(batched) != len(perProof) {
		t.Fatalf("driver result counts differ: %d vs %d", len(batched), len(perProof))
	}
	for id, b := range batched {
		p, ok := perProof[id]
		if !ok {
			t.Fatalf("per-proof run missing %s", id)
		}
		if b.Err != nil || p.Err != nil {
			t.Fatalf("%s errored: batched=%v per-proof=%v", id, b.Err, p.Err)
		}
		if b.Passed != p.Passed || b.Failed != p.Failed || b.State != p.State {
			t.Errorf("%s: batched %+v, per-proof %+v", id, b, p)
		}
	}
}

// resultsByID flattens a scheduler's results for cross-run comparison.
func resultsByID(s *sched.Scheduler) map[string]dsnaudit.Result {
	out := make(map[string]dsnaudit.Result)
	for id, res := range s.Results() {
		out[string(id)] = res
	}
	return out
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
	ch, err := eng.Contract.IssueChallenge()
	if err != nil {
		t.Fatal(err)
	}
	proof, err := eng.Provider.Respond(context.Background(), eng.ID(), ch)
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
		res, ok := s.Result(eng.ID())
		if !ok {
			t.Fatal("no result")
		}
		if res.Passed != 2 || res.State != contract.StateExpired {
			t.Fatalf("after adoption: %+v", res)
		}
	})
}

// TestRunRoundSettlesPendingProof proves the sequential driver completes a
// round left in SETTLE instead of refusing it.
func TestRunRoundSettlesPendingProof(t *testing.T) {
	_, eng := settleLimbo(t)
	passed, err := eng.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !passed {
		t.Fatal("pending honest proof failed settlement")
	}
	if eng.Contract.Round() != 1 || eng.Contract.State() != contract.StateAudit {
		t.Fatalf("round %d state %v after settling pending proof",
			eng.Contract.Round(), eng.Contract.State())
	}
}

// TestRunAllSettlesPendingProof proves the sequential RunAll driver picks
// up an engagement left in SETTLE and drives it to completion instead of
// silently returning zero rounds.
func TestRunAllSettlesPendingProof(t *testing.T) {
	_, eng := settleLimbo(t)
	passed, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if passed != 2 || eng.Contract.State() != contract.StateExpired {
		t.Fatalf("RunAll after limbo: passed=%d state=%v", passed, eng.Contract.State())
	}
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
