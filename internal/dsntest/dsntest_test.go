package dsntest

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/contract"
)

// TestOwnerKeysFollowSeed pins that a world's owner keys are a function of
// its seed: two builds at one seed give identical key bodies and an
// identical gas bill for the owner's first Negotiate, which posts the body
// (its zero bytes are cheaper calldata), and another seed gives another
// body.
func TestOwnerKeysFollowSeed(t *testing.T) {
	build := func(seed string) ([]byte, uint64) {
		t.Helper()
		w, err := NewWorld(seed, Eth(1), Names("sp-%c", 'a', 2)...)
		if err != nil {
			t.Fatal(err)
		}
		o, err := w.Owner("alice", 4, Eth(1))
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := o.AuditSK.Pub.KeyBody(true)
		if err != nil {
			t.Fatal(err)
		}
		k, err := contract.Deploy(w.Net.Chain, "probe", contract.Agreement{
			Owner: o.Address(), Provider: "sp-a", Rounds: 1, ChallengeSize: 1,
			RoundInterval: 1, ProofDeadline: 1, PaymentPerRound: big.NewInt(1),
			OwnerDeposit: big.NewInt(1), ProviderDeposit: big.NewInt(1),
			NumChunks: 1, PublicKey: o.AuditSK.Pub, PublicKeyPrivacy: true,
		}, w.Net.Beacon, 1)
		if err != nil {
			t.Fatal(err)
		}
		before := w.Net.Chain.TotalGas()
		if err := k.Negotiate(); err != nil {
			t.Fatal(err)
		}
		w.Net.Chain.MineBlock()
		return body, w.Net.Chain.TotalGas() - before
	}

	bodyA, gasA := build("seed-a")
	bodyB, gasB := build("seed-a")
	if !bytes.Equal(bodyA, bodyB) {
		t.Error("two builds at one seed gave different key bodies")
	}
	if gasA == 0 || gasA != gasB {
		t.Errorf("first Negotiate gas %d and %d at one seed, want equal and nonzero", gasA, gasB)
	}
	if bodyC, _ := build("seed-b"); bytes.Equal(bodyA, bodyC) {
		t.Error("two seeds gave the same key body; the seed does not reach the key")
	}
}
