package remote

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/dsnaudit"
	"repro/internal/contract"
	"repro/internal/core"
)

// hookedEntropy is a deterministic entropy stream with a settable one-shot
// read hook and delay: the churn test uses it to learn exactly when the
// server is mid-proof and to hold the proof open while the server dies.
type hookedEntropy struct {
	inner io.Reader

	mu    sync.Mutex
	delay time.Duration
	hook  func() // fired (and cleared) on the next Read
}

func (h *hookedEntropy) Read(p []byte) (int, error) {
	h.mu.Lock()
	hook, delay := h.hook, h.delay
	h.hook = nil
	h.mu.Unlock()
	if hook != nil {
		hook()
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return h.inner.Read(p)
}

func (h *hookedEntropy) arm(delay time.Duration, hook func()) {
	h.mu.Lock()
	h.delay, h.hook = delay, hook
	h.mu.Unlock()
}

// serveOnce runs a server for node on ln and returns a stop function that
// drains it and waits.
func serveOnce(t *testing.T, node *dsnaudit.ProviderNode, ln net.Listener) func() {
	t.Helper()
	srv := NewServer(node, WithServerLog(quiet))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, ln) }()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
}

// TestServerChurn is the -race client/server churn scenario: connect,
// audit rounds over one connection, kill the server mid-round (a proof is
// provably in flight when it dies), bring a new server up on the same
// address, and finish the engagement over the re-dialed connection — every
// round passing.
func TestServerChurn(t *testing.T) {
	fx := buildFixture(t, "churn")
	node := dsnaudit.NewProviderNode("churn-sp")
	entropy := &hookedEntropy{inner: newDetReader("churn")}
	node.ProofEntropy = entropy

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	stop1 := serveOnce(t, node, ln)
	t.Cleanup(stop1)

	client := NewClient(addr,
		WithCallTimeout(30*time.Second),
		WithRetries(6),
		withRetryBackoff(50*time.Millisecond))
	defer client.Close()

	holder := fx.sf.Holders[0]
	eng, err := fx.owner.EngageWith(context.Background(), fx.sf, holder, client, smallTerms(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Round 1 on the first server.
	if ok, err := eng.RunRound(ctx); err != nil || !ok {
		t.Fatalf("round 1: ok=%v err=%v", ok, err)
	}

	// Round 2: the next proof's entropy read signals "mid-proof"; the
	// killer goroutine then tears server 1 down while the request is in
	// flight and replaces it on the same address. The client's call fails,
	// backs off, re-dials and the round still passes.
	midProof := make(chan struct{})
	entropy.arm(300*time.Millisecond, func() { close(midProof) })
	var stop2 func()
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		<-midProof
		stop1()
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("re-listen on %s: %v", addr, err)
			return
		}
		stop2 = serveOnce(t, node, ln2)
	}()
	if ok, err := eng.RunRound(ctx); err != nil || !ok {
		t.Fatalf("round 2 across the server churn: ok=%v err=%v", ok, err)
	}
	<-churned
	if stop2 != nil {
		t.Cleanup(stop2)
	}
	entropy.arm(0, nil)

	// Round 3 on the replacement server.
	if ok, err := eng.RunRound(ctx); err != nil || !ok {
		t.Fatalf("round 3: ok=%v err=%v", ok, err)
	}
	if got := eng.Contract.State(); got != contract.StateExpired {
		t.Fatalf("state = %v, want EXPIRED", got)
	}
	for i, rec := range eng.Contract.Records() {
		if !rec.Passed {
			t.Fatalf("round %d failed during churn", i+1)
		}
	}
}

// TestClientRedialsAfterIdleDisconnect pins re-dial on a connection that
// died between calls (the common NAT-timeout shape).
func TestClientRedialsAfterIdleDisconnect(t *testing.T) {
	fx := buildFixture(t, "redial")
	node := dsnaudit.NewProviderNode("redial-sp")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	stop1 := serveOnce(t, node, ln)

	client := NewClient(addr, WithRetries(3), withRetryBackoff(20*time.Millisecond))
	defer client.Close()
	ctx := context.Background()
	if err := client.AcceptAuditData(ctx, "c", fx.owner.AuditSK.Pub, fx.sf.Encoded, fx.sf.Auths, 2); err != nil {
		t.Fatal(err)
	}

	// Tear the whole server down and replace it; the client's cached
	// connection is now dead.
	stop1()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serveOnce(t, node, ln2))

	ch, err := core.NewChallenge(4, newDetReader("redial-ch"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Respond(ctx, "c", ch); err != nil {
		t.Fatalf("respond after idle disconnect: %v", err)
	}
}

// TestClientClosedIsTerminal pins that a closed client fails fast rather
// than dialing.
func TestClientClosedIsTerminal(t *testing.T) {
	client := NewClient("127.0.0.1:1")
	client.Close()
	start := time.Now()
	if err := client.Ping(context.Background()); err == nil {
		t.Fatal("ping on a closed client succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("closed client took %v to fail", elapsed)
	}
}
