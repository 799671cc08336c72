package dsnaudit

import (
	"context"
	"crypto/rand"
	"testing"

	"repro/internal/beacon"
	"repro/internal/contract"
	"repro/internal/core"
)

// TestVDFBeaconIntegration runs the full audit lifecycle with the
// bias-resistant VDF beacon (Section V-E's fix) in place of the trusted
// default.
func TestVDFBeaconIntegration(t *testing.T) {
	vdfBeacon, err := beacon.NewVDFBeacon(256, 100, []byte("integration"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(WithBeacon(vdfBeacon))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := n.AddProvider(string(rune('a'+i))+"-sp", eth(1)); err != nil {
			t.Fatal(err)
		}
	}
	owner, err := NewOwner(n, "vdf-owner", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1500)
	rand.Read(data)
	sf, err := owner.Outsource("vdf-file", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := owner.EngageWith(context.Background(), sf, sf.Holders[0], sf.Holders[0], smallTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	passed, err := driveRounds(context.Background(), eng, 2)
	if err != nil {
		t.Fatal(err)
	}
	if passed != 2 || eng.Contract.State() != contract.StateExpired {
		t.Fatalf("passed=%d state=%v", passed, eng.Contract.State())
	}
}

// TestCommitRevealBeaconIntegration drives a contract round with challenge
// entropy from an n-party commit-reveal game, exactly the Randao-style
// pipeline of Section V-E.
func TestCommitRevealBeaconIntegration(t *testing.T) {
	n := testNetwork(t, 10)
	// Replace the beacon with a per-round commit-reveal game.
	n.Beacon = commitRevealSource{parties: 4}

	owner, err := NewOwner(n, "cr-owner", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 800)
	rand.Read(data)
	sf, err := owner.Outsource("cr-file", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := owner.EngageWith(context.Background(), sf, sf.Holders[0], sf.Holders[0], smallTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driveRounds(context.Background(), eng, 2); err != nil {
		t.Fatal(err)
	}
	if eng.Contract.State() != contract.StateExpired {
		t.Fatalf("state %v", eng.Contract.State())
	}
}

// commitRevealSource plays a fresh commit-reveal game per round.
type commitRevealSource struct {
	parties int
}

func (s commitRevealSource) Randomness(round int) ([]byte, error) {
	game, err := beacon.NewCommitReveal(s.parties)
	if err != nil {
		return nil, err
	}
	salts := make([][]byte, s.parties)
	contribs := make([][]byte, s.parties)
	for i := 0; i < s.parties; i++ {
		salts[i] = []byte{byte(round), byte(i), 0x01}
		contribs[i] = make([]byte, 32)
		if _, err := rand.Read(contribs[i]); err != nil {
			return nil, err
		}
		if err := game.Commit(i, beacon.Commitment(salts[i], contribs[i])); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.parties; i++ {
		if err := game.Reveal(i, salts[i], contribs[i]); err != nil {
			return nil, err
		}
	}
	return game.Output()
}

// TestRestoredOwnerContinuesAuditing exercises key persistence across an
// "owner restart": a key serialized and restored mid-contract still
// produces data the provider's existing authenticators verify against.
func TestRestoredOwnerContinuesAuditing(t *testing.T) {
	n := testNetwork(t, 10)
	owner, err := NewOwner(n, "phoenix", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1200)
	rand.Read(data)
	sf, err := owner.Outsource("file", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := owner.EngageWith(context.Background(), sf, sf.Holders[0], sf.Holders[0], smallTerms(3))
	if err != nil {
		t.Fatal(err)
	}
	if passed, err := driveRounds(context.Background(), eng, 1); err != nil || passed != 1 {
		t.Fatalf("round 1: %v %v", passed, err)
	}

	// Serialize and restore the audit key ("restart").
	enc, err := core.MarshalPrivateKey(owner.AuditSK)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.UnmarshalPrivateKey(enc)
	if err != nil {
		t.Fatal(err)
	}
	owner.AuditSK = restored

	// Remaining rounds still pass: the contract's stored key and the
	// provider's authenticators are unchanged, and the restored owner can
	// re-derive identical authenticators if it ever re-outsources.
	if passed, err := driveRounds(context.Background(), eng, 2); err != nil || passed != 2 {
		t.Fatalf("post-restore rounds: %v %v", passed, err)
	}
	if eng.Contract.State() != contract.StateExpired {
		t.Fatalf("state %v", eng.Contract.State())
	}
}
