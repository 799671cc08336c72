package dsnaudit

import (
	"context"
	"crypto/rand"
	"testing"
)

// TestReputationTracksAuditOutcomes verifies the Section VI-A
// countermeasure wiring: audit outcomes feed the reputation ledger, and a
// slashed provider sinks to the bottom of subsequent DHT candidate
// rankings.
func TestReputationTracksAuditOutcomes(t *testing.T) {
	n := testNetwork(t, 12)
	owner, err := NewOwner(n, "alice", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2000)
	rand.Read(data)
	sf, err := owner.Outsource("f1", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}

	honest := sf.Holders[0]
	eng, err := owner.EngageWith(context.Background(), sf, honest, honest, smallTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driveRounds(context.Background(), eng, 2); err != nil {
		t.Fatal(err)
	}
	honestTrust := n.Reputation.Trust(honest.Name)
	if honestTrust <= n.Reputation.Trust("never-seen") {
		t.Fatalf("honest provider trust %.3f not above floor", honestTrust)
	}

	// A second engagement against a different provider that cheats.
	sf2, err := owner.Outsource("f2", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	var cheater *ProviderNode
	for _, h := range sf2.Holders {
		if h.Name != honest.Name {
			cheater = h
			break
		}
	}
	eng2, err := owner.EngageWith(context.Background(), sf2, cheater, cheater, smallTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	prover, _ := cheater.Prover(eng2.Contract.Addr)
	for i := 0; i < prover.File.NumChunks(); i++ {
		prover.File.Corrupt(i, 0)
	}
	if passed, err := driveRounds(context.Background(), eng2, 1); err != nil || passed != 0 {
		t.Fatalf("cheating round: passed=%v err=%v", passed, err)
	}
	if n.Reputation.Trust(cheater.Name) != 0 {
		t.Fatal("slashed provider retains trust")
	}

	// Candidate ranking now puts the honest provider ahead of the cheater
	// whenever both are responsible for a key.
	provs, err := n.LocateProviders("f1", 12)
	if err != nil {
		t.Fatal(err)
	}
	honestIdx, cheaterIdx := -1, -1
	for i, p := range provs {
		switch p.Name {
		case honest.Name:
			honestIdx = i
		case cheater.Name:
			cheaterIdx = i
		}
	}
	if honestIdx < 0 || cheaterIdx < 0 {
		t.Fatal("providers missing from candidate list")
	}
	if honestIdx > cheaterIdx {
		t.Fatalf("slashed provider ranked above honest one (%d vs %d)", cheaterIdx, honestIdx)
	}
	if provs[len(provs)-1].Name != cheater.Name {
		t.Fatalf("cheater not ranked last: last is %s", provs[len(provs)-1].Name)
	}
}
