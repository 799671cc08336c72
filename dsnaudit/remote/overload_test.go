package remote

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/dsntest"
	"repro/internal/wire"
)

// TestClientMapsOverloaded pins the client's half of the protocol's
// backpressure code against a frame-level stub provider: a challenge
// answered with CodeOverloaded surfaces as dsnaudit.ErrOverloaded with the
// peer's retry-after hint and is not a transport error (the scheduler
// retries it instead of letting the round lapse into a slash), and the next
// call on the same connection gets its proof.
func TestClientMapsOverloaded(t *testing.T) {
	const contract = chain.Address("c-overload")
	want := []byte("proof bytes")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stubErr := make(chan error, 1)
	go func() { stubErr <- serveOverloadThenProof(ln, contract, want) }()

	client := NewClient(ln.Addr().String())
	defer client.Close()
	ch, err := core.NewChallenge(4, dsntest.NewDetReader("overload-chal"))
	if err != nil {
		t.Fatal(err)
	}

	_, err = client.Respond(context.Background(), contract, ch)
	if !errors.Is(err, dsnaudit.ErrOverloaded) {
		t.Fatalf("overloaded respond: got %v, want ErrOverloaded", err)
	}
	if hint := dsnaudit.RetryAfterHint(err); hint != 1 {
		t.Fatalf("retry-after hint = %d, want 1", hint)
	}
	if isTransportError(err) {
		t.Fatal("overload classified as a transport error (would be slashed)")
	}

	got, err := client.Respond(context.Background(), contract, ch)
	if err != nil {
		t.Fatalf("respond after the overload: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("proof = %q, want %q", got, want)
	}
	client.Close()
	if err := <-stubErr; err != nil {
		t.Fatal(err)
	}
}

// serveOverloadThenProof accepts one connection, answers its Hello, refuses
// the first challenge with CodeOverloaded and a one-block hint, and answers
// the second with proof. It holds the connection until the client closes
// it, so no reset races the last reply.
func serveOverloadThenProof(ln net.Listener, contract chain.Address, proof []byte) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	reply := func(typ wire.Type, id uint64, m interface{ Marshal() ([]byte, error) }) error {
		payload, err := m.Marshal()
		if err != nil {
			return err
		}
		return wire.WriteFrame(conn, &wire.Frame{Type: typ, ID: id, Payload: payload})
	}
	for i := 0; i < 3; i++ {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		switch {
		case f.Type == wire.MsgHello:
			err = reply(wire.MsgHello, f.ID, &wire.Hello{Node: "stub"})
		case f.Type == wire.MsgChallenge && i == 1:
			err = reply(wire.MsgError, f.ID, &wire.Error{Code: wire.CodeOverloaded, Message: "busy", RetryAfter: 1})
		case f.Type == wire.MsgChallenge:
			err = reply(wire.MsgProof, f.ID, &wire.Proof{Contract: contract, Proof: proof})
		default:
			return errors.New("stub: unexpected " + f.Type.String() + " frame")
		}
		if err != nil {
			return err
		}
	}
	_, err = io.Copy(io.Discard, conn)
	return err
}
