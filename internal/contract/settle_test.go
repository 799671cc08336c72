package contract

import (
	"crypto/rand"
	"errors"
	"testing"

	"repro/internal/core"
)

// submitRound walks one fixture to a pending proof: challenge issued,
// proof generated (over possibly-corrupted data) and submitted, block
// mined. The contract is left in SETTLE.
func submitRound(t *testing.T, f *fixture, corrupt bool) {
	t.Helper()
	f.initToAudit(t)
	f.advance()
	ch, err := f.contract.IssueChallenge()
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		for i := 0; i < f.ef.NumChunks(); i++ {
			f.ef.Corrupt(i, 0)
		}
	}
	proof, err := f.prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := proof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.contract.SubmitProof("provider", enc); err != nil {
		t.Fatal(err)
	}
	f.chain.MineBlock()
}

// TestSettleBatchIsolatesCheater settles a block carrying 1 corrupt + 15
// honest proofs: exactly one contract fails (and is slashed), all others
// pass, and the whole block costs strictly fewer final exponentiations than
// per-proof verification would.
func TestSettleBatchIsolatesCheater(t *testing.T) {
	const n = 16
	const bad = 11
	fixtures := make([]*fixture, n)
	cs := make([]*Contract, n)
	for i := range fixtures {
		fixtures[i] = newFixture(t, 1, nil)
		submitRound(t, fixtures[i], i == bad)
		cs[i] = fixtures[i].contract
	}

	var stats core.BatchStats
	results := SettleBatchAt(cs, cs[0].Chain.Height(), 0, &stats)
	if len(results) != n {
		t.Fatalf("%d results for %d contracts", len(results), n)
	}
	failed := 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("contract %d settlement error: %v", i, res.Err)
		}
		if res.Addr != cs[i].Addr {
			t.Fatalf("result %d for %s, want %s", i, res.Addr, cs[i].Addr)
		}
		if want := i != bad; res.Passed != want {
			t.Errorf("contract %d passed=%v, want %v", i, res.Passed, want)
		}
		if !res.Passed {
			failed++
		}
		wantState := StateExpired
		if i == bad {
			wantState = StateAborted
		}
		if cs[i].State() != wantState {
			t.Errorf("contract %d state %v, want %v", i, cs[i].State(), wantState)
		}
	}
	if failed != 1 {
		t.Fatalf("%d contracts failed, want exactly 1", failed)
	}
	// One cheater among 16: the full-batch check plus its index-weighted
	// copy, which names the cheater — against the 16 final exponentiations
	// per-proof settlement would need.
	if stats.FinalExps != 2 {
		t.Fatalf("batched settlement used %d final exps, want 2", stats.FinalExps)
	}

	// The slash landed: the cheater's collateral moved to its owner.
	badChain := fixtures[bad].chain
	if badChain.LockedBalance("provider").Sign() != 0 {
		t.Fatal("cheater's collateral still escrowed")
	}

	// Gas model: honest contracts pay the amortized share, the cheater pays
	// the full verification it forced.
	honestGas := cs[0].Records()[0].SettleGas
	badGas := cs[bad].Records()[0].SettleGas
	if honestGas >= badGas {
		t.Fatalf("honest settle gas %d not below cheater's %d", honestGas, badGas)
	}
}

// TestSettleBatchMixedStates covers the per-contract error paths: a
// contract not in SETTLE reports ErrWrongState without disturbing the rest,
// and a malformed pending proof is slashed without pairing work.
func TestSettleBatchMixedStates(t *testing.T) {
	honest := newFixture(t, 1, nil)
	submitRound(t, honest, false)

	idle := newFixture(t, 1, nil)
	idle.initToAudit(t) // AUDIT, nothing pending

	garbage := newFixture(t, 1, nil)
	garbage.initToAudit(t)
	garbage.advance()
	if _, err := garbage.contract.IssueChallenge(); err != nil {
		t.Fatal(err)
	}
	if err := garbage.contract.SubmitProof("provider", make([]byte, core.PrivateProofSize)); err != nil {
		t.Fatal(err)
	}

	var stats core.BatchStats
	results := SettleBatchAt([]*Contract{honest.contract, idle.contract, garbage.contract}, honest.chain.Height(), 0, &stats)

	if results[0].Err != nil || !results[0].Passed {
		t.Fatalf("honest contract: %+v", results[0])
	}
	if honest.contract.State() != StateExpired {
		t.Fatalf("honest state %v", honest.contract.State())
	}

	if !errors.Is(results[1].Err, errWrongState) {
		t.Fatalf("idle contract err = %v, want ErrWrongState", results[1].Err)
	}
	if idle.contract.State() != StateAudit {
		t.Fatalf("idle contract disturbed: %v", idle.contract.State())
	}

	if results[2].Err != nil || results[2].Passed {
		t.Fatalf("garbage contract: %+v", results[2])
	}
	if garbage.contract.State() != StateAborted {
		t.Fatalf("garbage state %v", garbage.contract.State())
	}
	// Only the honest proof reached the pairing stage: two per-item Miller
	// loops plus the shared sigma-term loop, one final exponentiation.
	if stats.FinalExps != 1 || stats.MillerLoops != 3 {
		t.Fatalf("stats %+v, want 1 final exp / 3 Miller loops", stats)
	}
}

// TestSettleBatchEmpty settles an empty block as a no-op.
func TestSettleBatchEmpty(t *testing.T) {
	var stats core.BatchStats
	if got := SettleBatchAt(nil, 0, 0, &stats); len(got) != 0 {
		t.Fatalf("%d results for empty batch", len(got))
	}
	if stats.FinalExps != 0 {
		t.Fatal("empty batch burned a final exponentiation")
	}
}
