package remote

import (
	"context"
	"crypto/rand"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/dsntest"
	"repro/internal/wire"
)

// TestMapRemoteError pins the transport classification of every wire error
// code: a draining server classifies like a refused dial (retry elsewhere,
// no reputation consequence), a peer rejecting our frames is a protocol
// failure, and a reachable-but-broken server (CodeInternal) is neither —
// the scheduler's missed-round path absorbs it without relabeling it.
func TestMapRemoteError(t *testing.T) {
	c := NewClient("127.0.0.1:1")
	defer c.Close()
	frame := func(code uint32) *wire.Frame {
		payload, err := (&wire.Error{Code: code, Message: "boom"}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return &wire.Frame{Type: wire.MsgError, ID: 1, Payload: payload}
	}

	cases := []struct {
		code      uint32
		want      error
		transport bool
	}{
		{wire.CodeNoAuditState, dsnaudit.ErrNoAuditState, false},
		{wire.CodeRejected, dsnaudit.ErrRejectedAuditData, false},
		{wire.CodeShuttingDown, dsnaudit.ErrProviderUnreachable, true},
		{wire.CodeBadRequest, dsnaudit.ErrBadFrame, true},
	}
	for _, tc := range cases {
		err := c.mapRemoteError(frame(tc.code))
		if !errors.Is(err, tc.want) {
			t.Errorf("code %d: error = %v, want %v", tc.code, err, tc.want)
		}
		if got := isTransportError(err); got != tc.transport {
			t.Errorf("code %d: isTransportError = %v, want %v", tc.code, got, tc.transport)
		}
	}

	err := c.mapRemoteError(frame(wire.CodeInternal))
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeInternal {
		t.Errorf("CodeInternal: error = %v, want the wire.Error itself", err)
	}
	if isTransportError(err) {
		t.Error("CodeInternal classified as a transport error")
	}
}

// countingReader counts reads of an underlying deterministic entropy
// stream. The prover reads proof-blinding entropy only after both
// multi-scalar multiplications complete, so a zero count is evidence the
// proving pipeline was abandoned mid-computation.
type countingReader struct {
	inner *dsntest.DetReader
	reads atomic.Int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads.Add(1)
	return r.inner.Read(p)
}

// TestDisconnectCancelsInflightProving pins the server's per-connection
// cancellation: a peer that vanishes mid-request must abort the proving it
// requested, not leave the node to finish CPU-heavy work nobody will read.
func TestDisconnectCancelsInflightProving(t *testing.T) {
	// A file big enough that a full proof takes hundreds of milliseconds
	// of MSM and polynomial work — orders of magnitude longer than the
	// scheduler latency between a loopback close and the read loop's
	// cancellation, even with the proving goroutine hogging a single CPU.
	w, err := dsntest.NewWorld("disconnect", dsntest.Eth(1), dsntest.Names("sp-%02d", 0, 12)...)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := w.Owner("owner", 4, dsntest.Eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256*1024)
	rand.Read(data)
	sf, err := owner.Outsource("big-file", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}

	entropy := &countingReader{inner: dsntest.NewDetReader("cancel-probe")}
	node := dsnaudit.NewProviderNode("victim")
	node.ProofEntropy = entropy
	contractAddr := chain.Address("cancel-contract")
	if err := node.AcceptAuditData(context.Background(), contractAddr, owner.AuditSK.Pub, sf.Encoded, sf.Auths, 2); err != nil {
		t.Fatal(err)
	}
	addr, stop := startServer(t, node)

	newChallenge := func(seed string) *core.Challenge {
		ch, err := core.NewChallenge(2000, dsntest.NewDetReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}

	// Sanity leg: a proof that completes reads blinding entropy, so the
	// counter below is a real observable for "proving finished".
	client := NewClient(addr, WithCallTimeout(time.Minute))
	if _, err := client.Respond(context.Background(), contractAddr, newChallenge("happy")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if entropy.reads.Load() == 0 {
		t.Fatal("completed proof read no entropy; the probe observable is broken")
	}
	entropy.reads.Store(0)

	// The disconnect leg: handshake, fire a challenge, vanish.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := (&wire.Hello{Node: "flaky-driver"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, &wire.Frame{Type: wire.MsgHello, ID: 1, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(conn); err != nil {
		t.Fatal(err)
	}
	payload, err := (&wire.Challenge{Contract: contractAddr, Chal: newChallenge("doomed")}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, &wire.Frame{Type: wire.MsgChallenge, ID: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Leave the server running long enough that uncanceled proving would
	// have completed several times over — stopping immediately would let
	// the drain's own cancellation mask a missing per-connection cancel.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if got := entropy.reads.Load(); got != 0 {
			t.Fatalf("abandoned proving completed (%d entropy reads); disconnect did not cancel it", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Draining waits for the connection's in-flight handler, so once stop
	// returns the abandoned proving has run as far as it ever will.
	stop()
	if got := entropy.reads.Load(); got != 0 {
		t.Fatalf("abandoned proving completed (%d entropy reads); disconnect did not cancel it", got)
	}
}

// TestHostileAcceptAuditDataDoesNotKillServer sends an AcceptAuditData
// whose key and file disagree on the chunk size — a payload that decodes
// cleanly frame-by-frame but violates a cross-field invariant. The server
// must answer with an Error frame and keep serving, not crash the process
// every engagement depends on.
func TestHostileAcceptAuditDataDoesNotKillServer(t *testing.T) {
	node := dsnaudit.NewProviderNode("sturdy")
	addr, _ := startServer(t, node)

	sk2, err := core.KeyGen(2, dsntest.NewDetReader("sk2"))
	if err != nil {
		t.Fatal(err)
	}
	sk3, err := core.KeyGen(3, dsntest.NewDetReader("sk3"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200)
	rand.Read(data)
	ef, err := core.EncodeFile(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := core.Setup(sk2, ef)
	if err != nil {
		t.Fatal(err)
	}

	// The s=3 key with the s=2 file and its authenticators: every field
	// marshals fine, the combination is hostile.
	payload, err := (&wire.AcceptAuditData{
		Contract:   chain.Address("hostile"),
		PublicKey:  sk3.Pub,
		File:       ef,
		Auths:      auths,
		SampleSize: 1,
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := (&wire.Hello{Node: "attacker"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, &wire.Frame{Type: wire.MsgHello, ID: 1, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(conn); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, &wire.Frame{Type: wire.MsgAcceptAuditData, ID: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no response to the hostile request (server died?): %v", err)
	}
	if resp.Type != wire.MsgError {
		t.Fatalf("response type = %v, want Error", resp.Type)
	}

	// The server is still alive and serving.
	if err := wire.WriteFrame(conn, &wire.Frame{Type: wire.MsgPing, ID: 3}); err != nil {
		t.Fatal(err)
	}
	pong, err := wire.ReadFrame(conn)
	if err != nil || pong.Type != wire.MsgPing || pong.ID != 3 {
		t.Fatalf("ping after hostile request: frame=%+v err=%v", pong, err)
	}
}

// TestWriteToWedgedPeerHonorsDeadline pins the client's write bound: a
// peer that accepted the dial but never reads must not hang a call past
// its deadline just because the frame is too big for the socket buffers.
func TestWriteToWedgedPeerHonorsDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-hold // hold the connection open without ever reading
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := newClientConn(conn)
	defer cc.close(errors.New("test over"))

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	payload := make([]byte, 32<<20) // far beyond any socket buffer
	start := time.Now()
	_, err = cc.roundTrip(ctx, 1, wire.MsgAcceptAuditData, payload)
	if err == nil {
		t.Fatal("write to a wedged peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("call took %v; the deadline did not bound the write", elapsed)
	}
	if !cc.dead() {
		t.Fatal("connection survived a failed write; a partial frame would corrupt framing")
	}
}

// isTransportError reports whether err is a transport-level failure — the
// provider unreachable, the response window blown, or the peer speaking the
// protocol wrong — as opposed to an audit verdict.
func isTransportError(err error) bool {
	return errors.Is(err, dsnaudit.ErrProviderUnreachable) ||
		errors.Is(err, dsnaudit.ErrResponseTimeout) ||
		errors.Is(err, dsnaudit.ErrBadFrame)
}

// TestResponseBeatsCloseRace pins that a response which arrived before its
// connection died is delivered. A stub answers each challenge and closes at
// once; the dialed conn holds the challenge's Write until the client has
// seen the close, so when the call starts waiting its response and the dead
// connection are both ready. With no retries, taking the dead connection
// over the response fails the call.
func TestResponseBeatsCloseRace(t *testing.T) {
	const contract = chain.Address("c-close")
	want := []byte("proof bytes")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go serveProofThenClose(ln, contract, want)

	ch, err := core.NewChallenge(4, dsntest.NewDetReader("close-race"))
	if err != nil {
		t.Fatal(err)
	}
	const calls = 64
	failed := 0
	for i := 0; i < calls; i++ {
		client := NewClient(ln.Addr().String(), WithRetries(0), WithCallTimeout(5*time.Second))
		client.dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return &closeAfterWrite{Conn: c, closed: make(chan struct{})}, nil
		}
		got, err := client.Respond(context.Background(), contract, ch)
		client.Close()
		if err != nil || string(got) != string(want) {
			failed++
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d calls lost a response that arrived before the close", failed, calls)
	}
}

// closeAfterWrite is a conn whose second Write, the request after the
// Hello, returns only once the client has closed the conn: after its
// reader saw the peer's EOF and marked the connection dead.
type closeAfterWrite struct {
	net.Conn
	writes int
	once   sync.Once
	closed chan struct{}
}

func (c *closeAfterWrite) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.writes++; c.writes == 2 {
		select {
		case <-c.closed:
		case <-time.After(5 * time.Second):
		}
	}
	return n, err
}

func (c *closeAfterWrite) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// serveProofThenClose answers, on every connection, the Hello and one
// challenge, then closes the connection at once.
func serveProofThenClose(ln net.Listener, contract chain.Address, proof []byte) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for _, typ := range []wire.Type{wire.MsgHello, wire.MsgProof} {
			f, err := wire.ReadFrame(conn)
			if err != nil {
				break
			}
			var m interface{ Marshal() ([]byte, error) } = &wire.Hello{Node: "stub"}
			if typ == wire.MsgProof {
				m = &wire.Proof{Contract: contract, Proof: proof}
			}
			payload, err := m.Marshal()
			if err != nil {
				break
			}
			if err := wire.WriteFrame(conn, &wire.Frame{Type: typ, ID: f.ID, Payload: payload}); err != nil {
				break
			}
		}
		conn.Close()
	}
}
