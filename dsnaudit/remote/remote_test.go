package remote

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/wire"
)

// ping checks liveness end to end (dial, handshake, echo).
func (c *Client) ping(ctx context.Context) error {
	// A ping's payload is a nonce the peer echoes back.
	resp, err := c.roundTrip(ctx, wire.MsgPing, binary.BigEndian.AppendUint64(nil, 1))
	if err != nil {
		return err
	}
	if resp.Type != wire.MsgPing {
		return fmt.Errorf("%w: %v response to ping", dsnaudit.ErrBadFrame, resp.Type)
	}
	return nil
}

func eth(n int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
}

// quiet silences server connection logs in tests.
func quiet(string, ...any) {}

// withRetryBackoff sets the client's base backoff between re-dials (attempt
// i waits d << (i-1)), so tests that kill or restart a server re-dial fast.
func withRetryBackoff(d time.Duration) ClientOption {
	return func(c *Client) { c.backoff = d }
}

// detReader is a deterministic entropy stream: block i is
// SHA-256(seed || i). Two readers with the same seed yield identical
// bytes, which is what pins byte-identical proofs across transports.
type detReader struct {
	mu   sync.Mutex
	seed string
	ctr  uint64
	buf  []byte
}

func newDetReader(seed string) *detReader { return &detReader{seed: seed} }

func (r *detReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.buf) < len(p) {
		var blk [8]byte
		binary.BigEndian.PutUint64(blk[:], r.ctr)
		r.ctr++
		h := sha256.Sum256(append([]byte(r.seed), blk[:]...))
		r.buf = append(r.buf, h[:]...)
	}
	copy(p, r.buf[:len(p)])
	r.buf = r.buf[len(p):]
	return len(p), nil
}

// testFixture is a seeded network with an outsourced file, ready to engage
// providers over any transport.
type testFixture struct {
	net   *dsnaudit.Network
	owner *dsnaudit.Owner
	sf    *dsnaudit.StoredFile
}

func buildFixture(t testing.TB, beaconSeed string) *testFixture {
	t.Helper()
	b, err := beacon.NewTrusted([]byte(beaconSeed))
	if err != nil {
		t.Fatal(err)
	}
	n, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := n.AddProvider("sp-"+string(rune('a'+i)), eth(1)); err != nil {
			t.Fatal(err)
		}
	}
	owner, err := dsnaudit.NewOwner(n, "owner", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i * 7)
	}
	sf, err := owner.Outsource("net-file", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return &testFixture{net: n, owner: owner, sf: sf}
}

func smallTerms(rounds int) dsnaudit.EngagementTerms {
	terms := dsnaudit.DefaultTerms(rounds)
	terms.ChallengeSize = 4
	return terms
}

// schedule drives eng to completion on a new scheduler over net and returns
// its result.
func schedule(t *testing.T, net *dsnaudit.Network, eng *dsnaudit.Engagement) dsnaudit.Result {
	t.Helper()
	s := sched.NewScheduler(net)
	if err := s.Add(eng); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, ok := s.Results()[eng.ID()]
	if !ok {
		t.Fatalf("no result for %s", eng.ID())
	}
	return res
}

// hookedResponder delegates to inner and runs before(n) ahead of its n-th
// call, counting from 1: the seam where a test acts between the rounds the
// scheduler drives. The scheduler asks for one engagement's proofs one
// round at a time, so the calls never overlap.
type hookedResponder struct {
	inner  dsnaudit.Responder
	before func(call int)
	calls  int
}

func (h *hookedResponder) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	h.calls++
	h.before(h.calls)
	return h.inner.Respond(ctx, addr, ch)
}

// startServer serves node on a loopback listener and returns its address
// plus a stop function that drains the server and waits for it to exit.
func startServer(t testing.TB, node *dsnaudit.ProviderNode) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node, WithServerLog(quiet))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

func TestClientServerBasics(t *testing.T) {
	fx := buildFixture(t, "basics")
	node := dsnaudit.NewProviderNode("remote-sp")
	addr, _ := startServer(t, node)
	client := NewClient(addr)
	defer client.Close()
	ctx := context.Background()

	if err := client.ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// Push audit state over the wire, then collect a proof and check it
	// verifies exactly like an in-process one.
	const contract = "audit:owner:remote-sp:net-file"
	err := client.AcceptAuditData(ctx, contract, fx.owner.AuditSK.Pub, fx.sf.Encoded, fx.sf.Auths, 8)
	if err != nil {
		t.Fatalf("accept audit data: %v", err)
	}
	ch, err := core.NewChallenge(4, newDetReader("challenge"))
	if err != nil {
		t.Fatal(err)
	}
	proofBytes, err := client.Respond(ctx, contract, ch)
	if err != nil {
		t.Fatalf("respond: %v", err)
	}
	proof, err := core.UnmarshalPrivateProof(proofBytes)
	if err != nil {
		t.Fatalf("proof did not parse: %v", err)
	}
	if !core.VerifyPrivate(fx.owner.AuditSK.Pub, fx.sf.Encoded.NumChunks(), ch, proof) {
		t.Fatal("remotely produced proof failed verification")
	}

	// Unknown contract maps back to the dsnaudit sentinel.
	if _, err := client.Respond(ctx, "no-such-contract", ch); err == nil {
		t.Fatal("respond on unknown contract succeeded")
	} else if !errors.Is(err, dsnaudit.ErrNoAuditState) {
		t.Fatalf("unknown contract error = %v, want ErrNoAuditState", err)
	}
}

// TestConcurrentCallsShareOneConnection pins the request-ID multiplexing:
// many engagements' calls race down one client and every response lands
// with its caller.
func TestConcurrentCallsShareOneConnection(t *testing.T) {
	fx := buildFixture(t, "mux")
	node := dsnaudit.NewProviderNode("remote-sp")
	addr, _ := startServer(t, node)
	client := NewClient(addr)
	defer client.Close()
	ctx := context.Background()

	contracts := []chain.Address{"c-one", "c-two", "c-three", "c-four"}
	for _, c := range contracts {
		if err := client.AcceptAuditData(ctx, c, fx.owner.AuditSK.Pub, fx.sf.Encoded, fx.sf.Auths, 2); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(contracts)*3)
	for i := 0; i < 3; i++ {
		for _, c := range contracts {
			wg.Add(1)
			go func(contract chain.Address, i int) {
				defer wg.Done()
				ch, err := core.NewChallenge(3, newDetReader(string(contract)+string(rune('0'+i))))
				if err != nil {
					errs <- err
					return
				}
				proofBytes, err := client.Respond(ctx, contract, ch)
				if err != nil {
					errs <- err
					return
				}
				proof, err := core.UnmarshalPrivateProof(proofBytes)
				if err != nil {
					errs <- err
					return
				}
				if !core.VerifyPrivate(fx.owner.AuditSK.Pub, fx.sf.Encoded.NumChunks(), ch, proof) {
					errs <- errors.New("proof failed verification")
				}
			}(c, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerRejectsGarbage pins that a protocol violation drops the
// connection instead of wedging the server.
func TestServerRejectsGarbage(t *testing.T) {
	node := dsnaudit.NewProviderNode("remote-sp")
	addr, _ := startServer(t, node)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("definitely not a frame, not even close....")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if n, err := conn.Read(buf); err == nil && n > 0 {
		// The server may send nothing before closing; any bytes received
		// must still be a well-formed frame, which garbage input never
		// earns. Either way the connection must die promptly.
		t.Logf("server sent %d bytes before closing", n)
	}
	// Wait for close: subsequent reads must fail.
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}
