// Package remote runs storage providers as networked nodes: a Server
// exposes a dsnaudit.ProviderNode over TCP speaking the internal/wire
// framed protocol, and a Client implements dsnaudit.ProviderTransport
// against such a server — so an audit driver cannot tell (beyond latency
// and failure modes) whether its provider lives in-process or in another
// OS process on another machine.
//
// The failure modes are the point. A provider that is offline, crashed, or
// slow past the response window surfaces to the driver as a transport
// error (dsnaudit.ErrProviderUnreachable / ErrResponseTimeout /
// ErrBadFrame), which the Scheduler maps onto the existing missed-round
// path: the proof deadline lapses and the provider is slashed exactly as
// if an in-process responder had silently failed.
package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/wire"
)

// WireVersion is the framing version this build speaks. Peers with a
// different version refuse each other's frames (see internal/wire's
// compatibility rule), so provider fleets and drivers upgrade together.
const WireVersion = wire.Version

// Server exposes one provider node over TCP. Each connection gets a reader
// goroutine; each request frame is handled on its own goroutine and the
// response is matched back by request ID, so any number of engagements
// (and audit drivers) multiplex one connection or many as they please.
type Server struct {
	node *dsnaudit.ProviderNode
	logf func(format string, args ...any)

	// Admission control for proving: proofSem (when non-nil) bounds how many
	// challenges the node proves at once; requests past the bound are
	// refused immediately with CodeOverloaded and the retry-after hint
	// instead of queueing behind a saturated CPU. No constructor option sets
	// it: a server proves every challenge it receives, and only the overload
	// tests bound it (withMaxInflightProofs in overload_test.go).
	proofSem chan struct{}

	obs *serverObs // nil = uninstrumented

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithServerLog directs the server's connection-level log lines (accepts,
// disconnects, protocol violations) to logf; the default is log.Printf.
// Pass a no-op to silence it.
func WithServerLog(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// overloadRetryAfter is the backoff hint, in blocks, that an overload
// refusal carries: the driver re-asks at the next block.
const overloadRetryAfter = 1

// NewServer wraps a provider node. The same node may serve any number of
// listeners and connections concurrently; its audit state is already safe
// for concurrent use.
func NewServer(node *dsnaudit.ProviderNode, opts ...ServerOption) *Server {
	s := &Server{
		node:  node,
		logf:  log.Printf,
		conns: make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// ListenAndServe listens on addr and serves until ctx is canceled. The
// bound address (useful with a ":0" addr) is reported through ready, if
// non-nil, once the listener is up.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ctx, ln)
}

// Serve accepts connections on ln until ctx is canceled, then drains
// gracefully: the listener closes, in-flight request handlers see the
// canceled context (aborting CPU-heavy proving cooperatively), their
// error responses are flushed, and Serve returns once every connection
// goroutine has exited. It returns ctx.Err() after a drain, or the accept
// error if the listener failed on its own.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer ln.Close()

	// The watcher tears the listener down on cancellation so Accept
	// unblocks; stopWatch keeps the watcher from outliving a Serve that
	// returns for its own reasons.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
			s.closeConns()
		case <-stopWatch:
		}
	}()

	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if !s.track(conn) {
			conn.Close()
			wg.Wait()
			return ctx.Err()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.untrack(conn)
			s.handleConn(ctx, conn)
		}()
	}
}

// track registers a live connection; it reports false when the server is
// already draining.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// closeConns closes every live connection, unblocking their readers; it is
// the cancellation path's counterpart to the listener close.
func (s *Server) closeConns() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// connWriter serializes response frames onto one connection: handlers run
// concurrently, the wire takes one frame at a time.
type connWriter struct {
	mu sync.Mutex
	c  net.Conn
}

func (w *connWriter) send(f *wire.Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return wire.WriteFrame(w.c, f)
}

// handleConn speaks the protocol on one connection: a Hello handshake,
// then a request loop that dispatches each frame to its own goroutine.
// The loop exits on the first framing violation (the stream boundary is
// untrustworthy after that) or when the peer or the drain closes the
// connection; it always waits for its in-flight handlers so their
// responses are not written to a closed conn by surprise. Handlers run
// under a per-connection context canceled when the loop exits, so a peer
// that disconnects mid-request — a driver whose call timeout fired, or one
// that was killed — aborts its own in-flight proving instead of leaving
// the node to finish CPU-heavy work nobody will read.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	ctx, cancelConn := context.WithCancel(ctx)
	defer cancelConn()
	w := &connWriter{c: conn}
	peer := conn.RemoteAddr()

	first, err := wire.ReadFrame(conn)
	if err != nil {
		s.logf("remote: %v: handshake read: %v", peer, err)
		if s.obs != nil && errors.Is(err, wire.ErrBadFrame) {
			s.obs.frameErrs.Inc()
		}
		return
	}
	if first.Type != wire.MsgHello {
		s.logf("remote: %v: first frame is %v, want Hello", peer, first.Type)
		s.sendError(w, first.ID, wire.CodeBadRequest, "handshake must open with Hello")
		return
	}
	hello, err := wire.UnmarshalHello(first.Payload)
	if err != nil {
		s.logf("remote: %v: bad hello: %v", peer, err)
		return
	}
	reply, err := (&wire.Hello{Node: s.node.Name}).Marshal()
	if err != nil {
		return
	}
	if err := w.send(&wire.Frame{Type: wire.MsgHello, ID: first.ID, Payload: reply}); err != nil {
		return
	}
	s.logf("remote: %v: peer %q connected", peer, hello.Node)

	var inflight sync.WaitGroup
	// Cancel before waiting: the in-flight handlers are what the wait is
	// for, and the cancellation is what unblocks their proving.
	defer func() { cancelConn(); inflight.Wait() }()
	for {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			if err != io.EOF && ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				s.logf("remote: %v: dropping connection: %v", peer, err)
				if s.obs != nil && errors.Is(err, wire.ErrBadFrame) {
					s.obs.frameErrs.Inc()
				}
			}
			return
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			// One hostile or malformed request must never take down the
			// node and every engagement it serves.
			defer func() {
				if r := recover(); r != nil {
					s.logf("remote: %v: request %d (%v) panicked: %v", peer, f.ID, f.Type, r)
					s.sendError(w, f.ID, wire.CodeInternal, fmt.Sprintf("internal error: %v", r))
				}
			}()
			s.handleFrame(ctx, w, f)
		}()
	}
}

// handleFrame serves one request frame and writes exactly one response
// carrying the same ID.
func (s *Server) handleFrame(ctx context.Context, w *connWriter, f *wire.Frame) {
	if err := ctx.Err(); err != nil {
		s.sendError(w, f.ID, wire.CodeShuttingDown, "server draining")
		return
	}
	s.obs.countRequest(f.Type)
	switch f.Type {
	case wire.MsgPing:
		// Echo, preserving the nonce bytes as-is.
		_ = w.send(&wire.Frame{Type: wire.MsgPing, ID: f.ID, Payload: f.Payload})

	case wire.MsgAcceptAuditData:
		m, err := wire.UnmarshalAcceptAuditData(f.Payload)
		if err != nil {
			s.sendError(w, f.ID, wire.CodeBadRequest, err.Error())
			return
		}
		if err := s.node.AcceptAuditData(ctx, m.Contract, m.PublicKey, m.File, m.Auths, int(m.SampleSize)); err != nil {
			code := wire.CodeRejected
			if ctx.Err() != nil {
				// A drain (or the peer's own disconnect) cut the
				// validation short; the provider did not refuse the deal.
				code = wire.CodeShuttingDown
			}
			s.sendError(w, f.ID, code, err.Error())
			return
		}
		payload, err := (&wire.Accepted{Contract: m.Contract}).Marshal()
		if err != nil {
			s.sendError(w, f.ID, wire.CodeInternal, err.Error())
			return
		}
		_ = w.send(&wire.Frame{Type: wire.MsgAccepted, ID: f.ID, Payload: payload})

	case wire.MsgChallenge:
		m, err := wire.UnmarshalChallenge(f.Payload)
		if err != nil {
			s.sendError(w, f.ID, wire.CodeBadRequest, err.Error())
			return
		}
		if s.proofSem != nil {
			select {
			case s.proofSem <- struct{}{}:
			default:
				// Full admission window: refuse now, cheaply and honestly,
				// rather than queue CPU-heavy proving without bound.
				s.sendOverloaded(w, f.ID, fmt.Sprintf("proving at capacity (%d in flight)", cap(s.proofSem)))
				return
			}
		}
		// The slot covers proving only and is free again before the proof
		// goes out: a client holding its answer never finds the slot it
		// just vacated still taken.
		proof, err := func() ([]byte, error) {
			if s.proofSem != nil {
				defer func() { <-s.proofSem }()
			}
			return s.node.Respond(ctx, m.Contract, m.Chal)
		}()
		if err != nil {
			code := wire.CodeInternal
			switch {
			case errors.Is(err, dsnaudit.ErrNoAuditState):
				code = wire.CodeNoAuditState
			case ctx.Err() != nil:
				code = wire.CodeShuttingDown
			}
			s.sendError(w, f.ID, code, err.Error())
			return
		}
		payload, err := (&wire.Proof{Contract: m.Contract, Proof: proof}).Marshal()
		if err != nil {
			s.sendError(w, f.ID, wire.CodeInternal, err.Error())
			return
		}
		_ = w.send(&wire.Frame{Type: wire.MsgProof, ID: f.ID, Payload: payload})

	case wire.MsgShareRequest:
		m, err := wire.UnmarshalShareRequest(f.Payload)
		if err != nil {
			s.sendError(w, f.ID, wire.CodeBadRequest, err.Error())
			return
		}
		data, err := s.node.Store.Get(m.Key)
		if err != nil {
			s.sendError(w, f.ID, wire.CodeNoShare, fmt.Sprintf("no share stored under %q", m.Key))
			return
		}
		payload, err := (&wire.ShareData{Key: m.Key, Share: data}).Marshal()
		if err != nil {
			s.sendError(w, f.ID, wire.CodeInternal, err.Error())
			return
		}
		_ = w.send(&wire.Frame{Type: wire.MsgShareData, ID: f.ID, Payload: payload})

	case wire.MsgShareData:
		// A ShareData *request* is a share push: a repaired share being
		// re-placed on this node. Stored as-is; Accepted echoes the key.
		m, err := wire.UnmarshalShareData(f.Payload)
		if err != nil {
			s.sendError(w, f.ID, wire.CodeBadRequest, err.Error())
			return
		}
		s.node.Store.Put(m.Key, m.Share)
		payload, err := (&wire.Accepted{Contract: chain.Address(m.Key)}).Marshal()
		if err != nil {
			s.sendError(w, f.ID, wire.CodeInternal, err.Error())
			return
		}
		_ = w.send(&wire.Frame{Type: wire.MsgAccepted, ID: f.ID, Payload: payload})

	case wire.MsgHello:
		// A repeat handshake is harmless; answer it.
		payload, err := (&wire.Hello{Node: s.node.Name}).Marshal()
		if err != nil {
			return
		}
		_ = w.send(&wire.Frame{Type: wire.MsgHello, ID: f.ID, Payload: payload})

	default:
		s.sendError(w, f.ID, wire.CodeBadRequest, fmt.Sprintf("unexpected request type %v", f.Type))
	}
}

// sendError writes an Error response; message length is bounded to fit the
// wire's string cap.
func (s *Server) sendError(w *connWriter, id uint64, code uint32, msg string) {
	if len(msg) > 900 {
		msg = msg[:900] + "..."
	}
	payload, err := (&wire.Error{Code: code, Message: msg}).Marshal()
	if err != nil {
		return
	}
	_ = w.send(&wire.Frame{Type: wire.MsgError, ID: id, Payload: payload})
}

// sendOverloaded writes the admission refusal with the retry-after hint.
func (s *Server) sendOverloaded(w *connWriter, id uint64, msg string) {
	if s.obs != nil {
		s.obs.overloads.Inc()
	}
	payload, err := (&wire.Error{Code: wire.CodeOverloaded, Message: msg, RetryAfter: overloadRetryAfter}).Marshal()
	if err != nil {
		return
	}
	_ = w.send(&wire.Frame{Type: wire.MsgError, ID: id, Payload: payload})
}
