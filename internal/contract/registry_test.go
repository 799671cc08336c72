package contract

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"math/big"
	"testing"

	"repro/internal/bn256"
	"repro/internal/chain"
	"repro/internal/core"
)

// registryChain is a funded chain for the registry tests.
func registryChain() *chain.Chain {
	c := chain.New(chain.DefaultConfig())
	for _, a := range []chain.Address{"alice", "bob", "provider"} {
		c.Fund(a, big.NewInt(1_000_000))
	}
	return c
}

// deployFor deploys a one-round contract of owner under pk.
func deployFor(t *testing.T, c *chain.Chain, addr chain.Address, owner chain.Address, pk *core.PublicKey, privacy bool) *Contract {
	t.Helper()
	k, err := Deploy(c, addr, Agreement{
		Owner:            owner,
		Provider:         "provider",
		Rounds:           1,
		ChallengeSize:    1,
		RoundInterval:    1,
		ProofDeadline:    1,
		PaymentPerRound:  big.NewInt(1),
		OwnerDeposit:     big.NewInt(1),
		ProviderDeposit:  big.NewInt(1),
		NumChunks:        1,
		PublicKey:        pk,
		PublicKeyPrivacy: privacy,
	}, fixedBeacon{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// negotiated runs k's Negotiate, mines its transaction alone into a block
// and returns that transaction's calldata and gas.
func negotiated(t *testing.T, c *chain.Chain, k *Contract) ([]byte, uint64) {
	t.Helper()
	if err := k.Negotiate(); err != nil {
		t.Fatal(err)
	}
	blk := c.MineBlock()
	if len(blk.Txs) != 1 {
		t.Fatalf("Negotiate posted %d transactions, want 1", len(blk.Txs))
	}
	return blk.Txs[0].Data, blk.GasUsed
}

// gasFor is a transaction's gas under g: the base, its calldata byte by
// byte, and words fresh storage words.
func gasFor(g chain.GasSchedule, data []byte, words int) uint64 {
	zeros := bytes.Count(data, []byte{0})
	return g.TxBase + uint64(zeros)*g.CalldataZero + uint64(len(data)-zeros)*g.CalldataNonZero + uint64(words)*g.StorageWord
}

// keyParts cuts pk's encoding by its documented layout, s (4 bytes) ‖ ε ‖ δ
// ‖ Name (32) ‖ the rest, into the body (all but the Name) and the Name.
func keyParts(t *testing.T, pk *core.PublicKey, privacy bool) (enc, body, name []byte) {
	t.Helper()
	enc, err := pk.Marshal(privacy)
	if err != nil {
		t.Fatal(err)
	}
	const at = 4 + 2*bn256.G2UncompressedSize
	body = append(append([]byte(nil), enc[:at]...), enc[at+32:]...)
	return enc, body, enc[at : at+32]
}

// renamed is pk under a fresh random Name: the key of another file of the
// same owner key.
func renamed(t *testing.T, pk *core.PublicKey) *core.PublicKey {
	t.Helper()
	other := *pk
	if err := other.Name.SetRandom(rand.Reader); err != nil {
		t.Fatal(err)
	}
	return &other
}

// TestNegotiateRegistersKeyBodyOnce derives each Negotiate's calldata and
// gas from the gas schedule alone: an owner's first contract posts the key
// body with its reference (digest ‖ Name) and stores the body's words plus
// two; every later contract of that body posts and stores the 64-byte
// reference alone. The key without its GT element is another body.
func TestNegotiateRegistersKeyBodyOnce(t *testing.T) {
	alice, err := core.KeyGen(4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := core.KeyGen(4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c := registryChain()
	g := c.Config().Gas
	for i, tc := range []struct {
		what    string
		owner   chain.Address
		pk      *core.PublicKey
		privacy bool
		first   bool
	}{
		{"alice's first contract", "alice", alice.Pub, true, true},
		{"alice's second contract", "alice", renamed(t, alice.Pub), true, false},
		{"bob's first contract", "bob", bob.Pub, true, true},
		{"alice's key without the GT element", "alice", alice.Pub, false, true},
		{"alice's second contract without the GT element", "alice", renamed(t, alice.Pub), false, false},
		{"alice's third contract", "alice", alice.Pub, true, false},
	} {
		k := deployFor(t, c, chain.Address("k"+string(rune('0'+i))), tc.owner, tc.pk, tc.privacy)
		enc, body, name := keyParts(t, tc.pk, tc.privacy)
		digest := sha256.Sum256(body)
		ref := append(digest[:], name...)
		want, words := ref, 2
		if tc.first {
			want, words = append(append([]byte(nil), body...), ref...), (len(body)+31)/32+2
		}
		data, gas := negotiated(t, c, k)
		if !bytes.Equal(data, want) {
			t.Errorf("%s: posted %d calldata bytes, want %d", tc.what, len(data), len(want))
		}
		if w := gasFor(g, want, words); gas != w {
			t.Errorf("%s: %d gas, want %d", tc.what, gas, w)
		}
		if k.StoredKeyBytes() != len(enc) {
			t.Errorf("%s: StoredKeyBytes %d, want the Fig. 4 size %d", tc.what, k.StoredKeyBytes(), len(enc))
		}
	}
}

// TestKeyRegistryOutlivesRejectionAndStaysPerChain: a contract the provider
// rejects leaves its body registered, and another chain registers the same
// body afresh.
func TestKeyRegistryOutlivesRejectionAndStaysPerChain(t *testing.T) {
	sk, err := core.KeyGen(4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := keyParts(t, sk.Pub, true)
	c := registryChain()
	rejected := deployFor(t, c, "rejected", "alice", sk.Pub, true)
	if data, _ := negotiated(t, c, rejected); len(data) != len(body)+64 {
		t.Fatalf("first contract posted %d bytes, want the body and its reference (%d)", len(data), len(body)+64)
	}
	if err := rejected.Acknowledge("provider", false); err != nil {
		t.Fatal(err)
	}
	if rejected.State() != StateAborted {
		t.Fatalf("rejected contract in %s", rejected.State())
	}
	c.MineBlock()
	next := deployFor(t, c, "next", "alice", renamed(t, sk.Pub), true)
	if data, _ := negotiated(t, c, next); len(data) != 64 {
		t.Fatalf("contract after a rejection posted %d bytes, want its 64-byte reference", len(data))
	}

	other := registryChain()
	fresh := deployFor(t, other, "fresh", "alice", sk.Pub, true)
	if data, _ := negotiated(t, other, fresh); len(data) != len(body)+64 {
		t.Fatalf("another chain's first contract posted %d bytes, want the body and its reference (%d)", len(data), len(body)+64)
	}
}

// TestFirstContractKeyCostBound: the contract that registers a body costs at
// most what posting and storing the whole key cost every contract before
// the registry, plus one storage word and 32 calldata bytes (the digest).
func TestFirstContractKeyCostBound(t *testing.T) {
	for _, s := range []int{4, 50} {
		sk, err := core.KeyGen(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, privacy := range []bool{true, false} {
			c := registryChain()
			g := c.Config().Gas
			enc, _, _ := keyParts(t, sk.Pub, privacy)
			perContract := gasFor(g, enc, (len(enc)+31)/32)
			_, gas := negotiated(t, c, deployFor(t, c, "k", "alice", sk.Pub, privacy))
			if bound := perContract + g.StorageWord + 32*g.CalldataNonZero; gas > bound {
				t.Errorf("s=%d privacy=%v: first contract %d gas, above %d", s, privacy, gas, bound)
			}
		}
	}
}
