package remote

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/core"
)

// gatedStore is a ProverStore whose lookups block until released, pinning a
// challenge in the server's admission window for as long as the test wants.
type gatedStore struct {
	prover  *core.Prover
	entered chan struct{} // closed on the first GetProver call
	release chan struct{} // GetProver returns only after this closes
	once    sync.Once
}

func (s *gatedStore) PutProver(chain.Address, *core.Prover) error { return nil }
func (s *gatedStore) DeleteProver(chain.Address) error            { return nil }

func (s *gatedStore) GetProver(chain.Address) (*core.Prover, bool, error) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return s.prover, true, nil
}

// withMaxInflightProofs bounds the server's concurrent proving to n
// challenges; a challenge arriving past the bound is answered at once with
// CodeOverloaded and a retry-after hint of one block (overloadRetryAfter).
// Only proving is gated: audit-data handoffs, share fetches and pings are
// always admitted.
func withMaxInflightProofs(n int) ServerOption {
	return func(s *Server) { s.proofSem = make(chan struct{}, n) }
}

// TestServerOverloadRefusal pins the backpressure contract end to end: a
// challenge past the in-flight bound is answered immediately with the typed
// overload error and the retry-after hint, the refusal is not a transport
// error (so drivers must not treat it as a missed round), and capacity
// freed by the in-flight proof readmits new challenges.
func TestServerOverloadRefusal(t *testing.T) {
	fx := buildFixture(t, "overload")
	prover, err := core.NewProver(fx.owner.AuditSK.Pub, fx.sf.Encoded, fx.sf.Auths)
	if err != nil {
		t.Fatal(err)
	}
	store := &gatedStore{
		prover:  prover,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	node := dsnaudit.NewProviderNode("remote-sp")
	node.SetProverStore(store)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node, WithServerLog(quiet), withMaxInflightProofs(1))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	t.Cleanup(func() { cancel(); <-done })

	client := NewClient(ln.Addr().String())
	defer client.Close()

	const contract = chain.Address("c-overload")
	ch, err := core.NewChallenge(4, newDetReader("overload-chal"))
	if err != nil {
		t.Fatal(err)
	}

	// First challenge occupies the single admission slot; the gated store
	// holds it in flight until we release it.
	firstErr := make(chan error, 1)
	firstProof := make(chan []byte, 1)
	go func() {
		proof, err := client.Respond(context.Background(), contract, ch)
		firstProof <- proof
		firstErr <- err
	}()
	<-store.entered

	// Second challenge must be refused right now — not queued, not timed
	// out — with the sentinel, the hint, and without looking like a dead
	// provider.
	_, err = client.Respond(context.Background(), contract, ch)
	if !errors.Is(err, dsnaudit.ErrOverloaded) {
		t.Fatalf("saturated respond: got %v, want ErrOverloaded", err)
	}
	if hint := dsnaudit.RetryAfterHint(err); hint != 1 {
		t.Fatalf("retry-after hint = %d, want 1", hint)
	}
	if dsnaudit.IsTransportError(err) {
		t.Fatal("overload classified as a transport error (would be slashed)")
	}

	// Release the first proof: it must complete and verify, and the freed
	// slot must admit a fresh challenge.
	close(store.release)
	if err := <-firstErr; err != nil {
		t.Fatalf("in-flight respond: %v", err)
	}
	proofBytes := <-firstProof
	proof, err := core.UnmarshalPrivateProof(proofBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !core.VerifyPrivate(fx.owner.AuditSK.Pub, fx.sf.Encoded.NumChunks(), ch, proof) {
		t.Fatal("in-flight proof failed verification")
	}
	if _, err := client.Respond(context.Background(), contract, ch); err != nil {
		t.Fatalf("respond after slot freed: %v", err)
	}
}
