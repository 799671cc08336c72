package dsnaudit

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"runtime"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
)

func eth(n int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
}

// smallTerms keeps integration tests fast: tiny k, short intervals.
func smallTerms(rounds int) EngagementTerms {
	t := DefaultTerms(rounds)
	t.ChallengeSize = 4
	return t
}

func testNetwork(t *testing.T, providers int) *Network {
	t.Helper()
	n, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < providers; i++ {
		name := string(rune('a'+i)) + "-provider"
		if _, err := n.AddProvider(name, eth(1)); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestEndToEndHappyPath(t *testing.T) {
	n := testNetwork(t, 12)
	owner, err := NewOwner(n, "alice", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4000)
	rand.Read(data)

	sf, err := owner.Outsource("photos-2020", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Holders) != 10 {
		t.Fatalf("%d holders", len(sf.Holders))
	}

	// Retrieval works even with providers gone.
	sf.Holders[0].Store.Drop(sf.Manifest.ShareKeys[0])
	sf.Holders[1].Store.Drop(sf.Manifest.ShareKeys[1])
	got, err := owner.Retrieve(sf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retrieval mismatch")
	}

	// Audit the primary share holder.
	eng, err := owner.Engage(sf, sf.Holders[0], smallTerms(3))
	if err != nil {
		t.Fatal(err)
	}
	passed, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if passed != 3 {
		t.Fatalf("passed %d rounds, want 3", passed)
	}
	if eng.Contract.State() != contract.StateExpired {
		t.Fatalf("contract state %v", eng.Contract.State())
	}

	// The provider earned its per-round payments.
	bal := n.Chain.Balance(sf.Holders[0].Address())
	want := new(big.Int).Add(eth(1), big.NewInt(3000))
	if bal.Cmp(want) != 0 {
		t.Fatalf("provider balance %v, want %v", bal, want)
	}
}

func TestCheatingProviderCaughtAndSlashed(t *testing.T) {
	n := testNetwork(t, 10)
	owner, err := NewOwner(n, "bob", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2000)
	rand.Read(data)
	sf, err := owner.Outsource("backups", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := owner.Engage(sf, sf.Holders[0], smallTerms(5))
	if err != nil {
		t.Fatal(err)
	}

	// First round passes honestly.
	if ok, err := eng.RunRound(context.Background()); err != nil || !ok {
		t.Fatalf("honest round: %v %v", ok, err)
	}

	// Provider silently corrupts all audit chunks, then gets caught.
	prover, ok := eng.Provider.Prover(eng.Contract.Addr)
	if !ok {
		t.Fatal("prover state missing")
	}
	for i := 0; i < prover.File.NumChunks(); i++ {
		prover.File.Corrupt(i, 0)
	}
	okRound, err := eng.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if okRound {
		t.Fatal("corrupted round passed")
	}
	if eng.Contract.State() != contract.StateAborted {
		t.Fatalf("contract state %v, want ABORTED", eng.Contract.State())
	}
	// Owner received the provider's slashed deposit.
	ownerBal := n.Chain.Balance(owner.Address())
	// initial 1 ETH - 1000 paid round + 50000 slashed deposit
	want := new(big.Int).Add(eth(1), big.NewInt(49_000))
	if ownerBal.Cmp(want) != 0 {
		t.Fatalf("owner balance %v, want %v", ownerBal, want)
	}
}

func TestProviderRejectsForgedAuthenticators(t *testing.T) {
	n := testNetwork(t, 10)
	owner, err := NewOwner(n, "carol", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1500)
	rand.Read(data)
	sf, err := owner.Outsource("docs", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A cheating owner swaps in authenticators for different data to later
	// win disputes; the provider's acceptance check must refuse.
	sf.Encoded.Corrupt(0, 0)
	if _, err := owner.Engage(sf, sf.Holders[0], smallTerms(2)); err == nil {
		t.Fatal("provider accepted forged audit data")
	}
}

func TestLocateProvidersStable(t *testing.T) {
	n := testNetwork(t, 15)
	a, err := n.LocateProviders("object-key", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := n.LocateProviders("object-key", 5)
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("provider lookup not deterministic")
		}
	}
	if _, err := n.LocateProviders("k", 99); err == nil {
		t.Fatal("accepted oversubscribed lookup")
	}
}

func TestAddProviderDuplicate(t *testing.T) {
	n := testNetwork(t, 1)
	if _, err := n.AddProvider("a-provider", eth(1)); err == nil {
		t.Fatal("accepted duplicate provider")
	}
	if _, ok := n.Provider("a-provider"); !ok {
		t.Fatal("provider lookup failed")
	}
	if _, ok := n.Provider("ghost"); ok {
		t.Fatal("found nonexistent provider")
	}
}

func TestEngageValidation(t *testing.T) {
	n := testNetwork(t, 10)
	owner, _ := NewOwner(n, "dave", 4, eth(1))
	data := make([]byte, 500)
	rand.Read(data)
	sf, err := owner.Outsource("f", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	bad := smallTerms(0)
	if _, err := owner.Engage(sf, sf.Holders[0], bad); err == nil {
		t.Fatal("accepted zero rounds")
	}
}

func TestChainRecordsAuditTrail(t *testing.T) {
	n := testNetwork(t, 10)
	owner, _ := NewOwner(n, "erin", 4, eth(1))
	data := make([]byte, 1000)
	rand.Read(data)
	sf, _ := owner.Outsource("f", data, 3, 7)
	eng, err := owner.Engage(sf, sf.Holders[0], smallTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The chain must hold the expected events in order.
	var names []string
	for _, ev := range n.Chain.Events() {
		names = append(names, ev.Name)
	}
	want := []string{"negotiated", "acked", "inited", "challenged", "proofposted", "pass", "challenged", "proofposted", "pass", "expired"}
	if len(names) != len(want) {
		t.Fatalf("events %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("event %d = %s, want %s", i, names[i], want[i])
		}
	}
	// Audit trail bytes landed on chain.
	if n.Chain.TotalBytes() == 0 {
		t.Fatal("no bytes recorded on chain")
	}
}

// TestSentinelErrors pins the exported error taxonomy.
func TestSentinelErrors(t *testing.T) {
	n := testNetwork(t, 10)
	if _, err := n.AddProvider("a-provider", eth(1)); !errors.Is(err, ErrDuplicateProvider) {
		t.Fatalf("duplicate provider: %v", err)
	}
	owner, err := NewOwner(n, "sen", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 500)
	sf, err := owner.Outsource("s-file", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Engage(sf, sf.Holders[0], smallTerms(0)); !errors.Is(err, ErrInvalidTerms) {
		t.Fatalf("zero rounds: %v", err)
	}
	p, _ := n.Provider("a-provider")
	if _, err := p.Respond(context.Background(), "no-such-contract", &core.Challenge{K: 1}); !errors.Is(err, ErrNoAuditState) {
		t.Fatalf("respond without state: %v", err)
	}
	sf.Encoded.Corrupt(0, 0)
	if _, err := owner.Engage(sf, sf.Holders[1], smallTerms(1)); !errors.Is(err, ErrRejectedAuditData) {
		t.Fatalf("forged auths: %v", err)
	}
}

// TestSampleIndices pins the AcceptAuditData sampling fix: the requested
// sample size is honored exactly and clamped to the chunk count.
func TestSampleIndices(t *testing.T) {
	cases := []struct {
		n, size, want int
	}{
		{100, 8, 8},  // the seed's stride formula under-sampled this
		{5, 8, 5},    // clamp: more samples than chunks checks all chunks
		{8, 8, 8},    // exact
		{1, 1, 1},    // degenerate
		{10, 0, 1},   // floor at one sample
		{1000, 3, 3}, // sparse
	}
	for _, c := range cases {
		got := sampleIndices(c.n, c.size)
		if len(got) != c.want {
			t.Errorf("sampleIndices(%d,%d) has %d indices, want %d", c.n, c.size, len(got), c.want)
		}
		seen := make(map[int]bool)
		for _, idx := range got {
			if idx < 0 || idx >= c.n {
				t.Errorf("sampleIndices(%d,%d) out of range: %d", c.n, c.size, idx)
			}
			if seen[idx] {
				t.Errorf("sampleIndices(%d,%d) duplicate index %d", c.n, c.size, idx)
			}
			seen[idx] = true
		}
	}
}

// TestEngageAllDedupesHolders verifies EngageAll deploys one contract per
// distinct holder even if the holder list repeats a provider.
func TestEngageAllDedupesHolders(t *testing.T) {
	n := testNetwork(t, 12)
	owner, err := NewOwner(n, "dd", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 500)
	sf, err := owner.Outsource("dd-file", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	sf.Holders = append(sf.Holders, sf.Holders[0]) // simulate a repeated placement
	set, err := owner.EngageAll(sf, smallTerms(1))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range set.Engagements {
		if seen[e.Provider.Name] {
			t.Fatalf("duplicate contract for %s", e.Provider.Name)
		}
		seen[e.Provider.Name] = true
	}
	if len(set.Engagements) != 10 {
		t.Fatalf("%d engagements, want 10", len(set.Engagements))
	}
	if _, err := owner.EngageAll(&StoredFile{Manifest: sf.Manifest}, smallTerms(1)); !errors.Is(err, ErrNoHolders) {
		t.Fatalf("no holders: %v", err)
	}
}

// TestOutsourceTooFewProviders runs Outsource on a network with fewer
// providers than shares, with and without a failing audit plane as well: it
// returns LocateProviders' error either way, stores no share, and its
// storage-plane goroutine is gone once it has returned.
func TestOutsourceTooFewProviders(t *testing.T) {
	n := testNetwork(t, 4)
	owner, err := NewOwner(n, "alice", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := n.LocateProviders("photos", 10)
	if wantErr == nil {
		t.Fatal("4 providers hold 10 shares")
	}
	data := make([]byte, 4000)
	rand.Read(data)

	// A chunk size of zero makes EncodeFile, and so the audit plane, fail.
	badPub := *owner.AuditSK.Pub
	badPub.S = 0
	badSK := *owner.AuditSK
	badSK.Pub = &badPub
	for _, sk := range []*core.PrivateKey{owner.AuditSK, &badSK} {
		owner.AuditSK = sk
		before := runtime.NumGoroutine()
		sf, err := owner.Outsource("photos", data, 3, 7)
		if sf != nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("chunk size %d: Outsource = %v, %v; want LocateProviders' %v", sk.Pub.S, sf, err, wantErr)
		}
		for i := 0; i < 4; i++ {
			p, _ := n.Provider(string(rune('a'+i)) + "-provider")
			if keys := p.Store.Keys(); len(keys) != 0 {
				t.Fatalf("chunk size %d: %s stores %v", sk.Pub.S, p.Name, keys)
			}
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("chunk size %d: %d goroutines after Outsource, %d before", sk.Pub.S, runtime.NumGoroutine(), before)
			}
		}
	}
}
