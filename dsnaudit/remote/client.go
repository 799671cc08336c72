package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/wire"
)

// Default client tuning. The call timeout is the wall-clock face of the
// contract's proof deadline: a provider that cannot produce its proof
// within it yields a missed round.
const (
	defaultCallTimeout  = 30 * time.Second
	defaultDialTimeout  = 5 * time.Second
	defaultMaxRetries   = 2
	defaultRetryBackoff = 100 * time.Millisecond
)

// Client is the driver-side handle to one remote provider. It implements
// dsnaudit.ProviderTransport: AcceptAuditData pushes the audit state over
// the wire and Respond collects proofs, so an Engagement built with
// Owner.EngageWith drives a provider in another OS process unchanged.
//
// One connection is shared by all concurrent calls (request-ID
// multiplexing); it is established lazily, and re-dialed with bounded,
// backed-off retries when it breaks. Per-call deadlines bound every
// round-trip:
//
//   - no connection after every retry -> dsnaudit.ErrProviderUnreachable
//   - connected but silent past the deadline -> dsnaudit.ErrResponseTimeout
//   - protocol garbage -> dsnaudit.ErrBadFrame
//
// All three take the existing missed-round path in the scheduler, so a
// dead or slow-lorising provider is slashed exactly like a silent
// in-process one.
type Client struct {
	addr    string
	dial    func(ctx context.Context, addr string) (net.Conn, error)
	call    time.Duration
	maxTry  int // total attempts per call (1 + retries)
	backoff time.Duration
	obs     *clientObs // nil = uninstrumented

	mu     sync.Mutex
	conn   *clientConn
	nextID uint64
	closed bool
}

// ClientOption customizes NewClient.
type ClientOption func(*Client)

// WithCallTimeout bounds each request round-trip (proving time included).
func WithCallTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.call = d
		}
	}
}

// WithRetries sets how many times a call re-dials after a transport
// failure (0 = fail on the first broken connection).
func WithRetries(n int) ClientOption {
	return func(c *Client) {
		if n >= 0 {
			c.maxTry = n + 1
		}
	}
}

// NewClient creates a client for the provider server at addr. The
// connection is established lazily on the first call, so clients may be
// constructed before their servers come up.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{
		addr:    addr,
		call:    defaultCallTimeout,
		maxTry:  defaultMaxRetries + 1,
		backoff: defaultRetryBackoff,
	}
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		d := net.Dialer{Timeout: defaultDialTimeout}
		return d.DialContext(ctx, "tcp", addr)
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

var _ dsnaudit.RepairPeer = (*Client)(nil)

// errClientClosed is terminal: no retry can revive a closed client.
var errClientClosed = errors.New("remote: client closed")

// Close tears down the connection; subsequent calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		c.conn.close(errClientClosed)
		c.conn = nil
	}
	return nil
}

// Respond implements dsnaudit.Responder over the wire.
func (c *Client) Respond(ctx context.Context, contractAddr chain.Address, ch *core.Challenge) ([]byte, error) {
	payload, err := (&wire.Challenge{Contract: contractAddr, Chal: ch}).Marshal()
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, wire.MsgChallenge, payload)
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.MsgProof {
		return nil, fmt.Errorf("%w: %v response to a challenge", dsnaudit.ErrBadFrame, resp.Type)
	}
	m, err := wire.UnmarshalProof(resp.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", dsnaudit.ErrBadFrame, err)
	}
	if m.Contract != contractAddr {
		return nil, fmt.Errorf("%w: proof for %s, asked about %s", dsnaudit.ErrBadFrame, m.Contract, contractAddr)
	}
	return m.Proof, nil
}

// AcceptAuditData implements the dsnaudit.ProviderTransport handoff: the
// public key, encoded file and authenticators travel to the provider,
// which validates and acknowledges. The transfer is idempotent, so it
// shares the same retry machinery as Respond.
func (c *Client) AcceptAuditData(ctx context.Context, contractAddr chain.Address, pk *core.PublicKey, ef *core.EncodedFile, auths []*core.Authenticator, sampleSize int) error {
	msg := &wire.AcceptAuditData{
		Contract:   contractAddr,
		SampleSize: uint32(sampleSize),
		PublicKey:  pk,
		File:       ef,
		Auths:      auths,
	}
	payload, err := msg.Marshal()
	if err != nil {
		return err
	}
	resp, err := c.roundTrip(ctx, wire.MsgAcceptAuditData, payload)
	if err != nil {
		return err
	}
	if resp.Type != wire.MsgAccepted {
		return fmt.Errorf("%w: %v response to audit data", dsnaudit.ErrBadFrame, resp.Type)
	}
	m, err := wire.UnmarshalAccepted(resp.Payload)
	if err != nil {
		return fmt.Errorf("%w: %v", dsnaudit.ErrBadFrame, err)
	}
	if m.Contract != contractAddr {
		return fmt.Errorf("%w: acknowledgment for %s, sent %s", dsnaudit.ErrBadFrame, m.Contract, contractAddr)
	}
	return nil
}

// FetchShare implements dsnaudit.ShareFetcher over the wire: it asks the
// provider for the erasure share stored under key. A holder that dropped
// the share answers with CodeNoShare, surfacing as
// dsnaudit.ErrShareUnavailable.
func (c *Client) FetchShare(ctx context.Context, key string) ([]byte, error) {
	payload, err := (&wire.ShareRequest{Key: key}).Marshal()
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, wire.MsgShareRequest, payload)
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.MsgShareData {
		return nil, fmt.Errorf("%w: %v response to a share request", dsnaudit.ErrBadFrame, resp.Type)
	}
	m, err := wire.UnmarshalShareData(resp.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", dsnaudit.ErrBadFrame, err)
	}
	if m.Key != key {
		return nil, fmt.Errorf("%w: share for %q, asked for %q", dsnaudit.ErrBadFrame, m.Key, key)
	}
	return m.Share, nil
}

// PutShare implements dsnaudit.SharePlacer over the wire: it pushes a
// (reconstructed) erasure share onto the provider, which stores it under
// key and acknowledges.
func (c *Client) PutShare(ctx context.Context, key string, data []byte) error {
	payload, err := (&wire.ShareData{Key: key, Share: data}).Marshal()
	if err != nil {
		return err
	}
	resp, err := c.roundTrip(ctx, wire.MsgShareData, payload)
	if err != nil {
		return err
	}
	if resp.Type != wire.MsgAccepted {
		return fmt.Errorf("%w: %v response to a share push", dsnaudit.ErrBadFrame, resp.Type)
	}
	m, err := wire.UnmarshalAccepted(resp.Payload)
	if err != nil {
		return fmt.Errorf("%w: %v", dsnaudit.ErrBadFrame, err)
	}
	if string(m.Contract) != key {
		return fmt.Errorf("%w: acknowledgment for %q, pushed %q", dsnaudit.ErrBadFrame, m.Contract, key)
	}
	return nil
}

// ping checks liveness end to end (dial, handshake, echo).
func (c *Client) ping(ctx context.Context) error {
	payload, err := (&wire.Ping{Nonce: 1}).Marshal()
	if err != nil {
		return err
	}
	resp, err := c.roundTrip(ctx, wire.MsgPing, payload)
	if err != nil {
		return err
	}
	if resp.Type != wire.MsgPing {
		return fmt.Errorf("%w: %v response to ping", dsnaudit.ErrBadFrame, resp.Type)
	}
	return nil
}

// roundTrip sends one request and waits for its response, retrying over
// fresh connections on transport failure. Timeouts do not retry: the
// per-call budget is the response window, and burning it on retries would
// turn one slow round into several.
func (c *Client) roundTrip(ctx context.Context, typ wire.Type, payload []byte) (*wire.Frame, error) {
	ctx, cancel := context.WithTimeout(ctx, c.call)
	defer cancel()

	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < c.maxTry; attempt++ {
		if attempt > 0 {
			if c.obs != nil {
				c.obs.retries.Inc()
			}
			wait := c.backoff << (attempt - 1)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, c.timeoutErr(ctx, lastErr)
			}
		}
		cc, err := c.ensureConn(ctx)
		if err != nil {
			if errors.Is(err, errClientClosed) {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, c.timeoutErr(ctx, err)
			}
			lastErr = err
			continue
		}
		resp, err := cc.roundTrip(ctx, c.reserveID(), typ, payload)
		if err == nil {
			c.obs.observeRTT(typ, time.Since(start))
			if resp.Type == wire.MsgError {
				return nil, c.mapRemoteError(resp)
			}
			return resp, nil
		}
		if c.obs != nil && errors.Is(err, dsnaudit.ErrBadFrame) {
			c.obs.frameErrs.Inc()
		}
		if ctx.Err() != nil {
			// The deadline (or the caller's cancellation) cut the call. A
			// connection merely awaiting a response is left in place, but
			// one that died under the call (a timed-out write) is dropped
			// so the next call redials instead of failing on it. This
			// attempt's err is the informative cause, not lastErr.
			if cc.dead() {
				c.dropConn(cc)
			}
			return nil, c.timeoutErr(ctx, err)
		}
		// Transport failure: drop the broken connection and retry on a
		// fresh dial.
		lastErr = err
		c.dropConn(cc)
	}
	if errors.Is(lastErr, dsnaudit.ErrBadFrame) {
		return nil, fmt.Errorf("%w after %d attempts against %s: %w",
			dsnaudit.ErrBadFrame, c.maxTry, c.addr, lastErr)
	}
	return nil, fmt.Errorf("%w: %s after %d attempts: %w",
		dsnaudit.ErrProviderUnreachable, c.addr, c.maxTry, lastErr)
}

// timeoutErr classifies a deadline expiry: the caller's own cancellation
// passes through, the per-call deadline becomes ErrResponseTimeout.
func (c *Client) timeoutErr(ctx context.Context, lastErr error) error {
	if err := context.Cause(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if errors.Is(lastErr, context.DeadlineExceeded) || errors.Is(lastErr, context.Canceled) {
		// The attempt failed *because* the deadline fired; repeating the
		// context error as a "transport error" would be noise.
		lastErr = nil
	}
	if lastErr != nil {
		return fmt.Errorf("%w: %s after %v (last transport error: %v)",
			dsnaudit.ErrResponseTimeout, c.addr, c.call, lastErr)
	}
	return fmt.Errorf("%w: %s after %v", dsnaudit.ErrResponseTimeout, c.addr, c.call)
}

// mapRemoteError turns an Error frame into the matching sentinel.
func (c *Client) mapRemoteError(f *wire.Frame) error {
	e, err := wire.UnmarshalError(f.Payload)
	if err != nil {
		return fmt.Errorf("%w: %v", dsnaudit.ErrBadFrame, err)
	}
	switch e.Code {
	case wire.CodeNoAuditState:
		return fmt.Errorf("%w: %s", dsnaudit.ErrNoAuditState, e.Message)
	case wire.CodeNoShare:
		return fmt.Errorf("%w: %s", dsnaudit.ErrShareUnavailable, e.Message)
	case wire.CodeRejected:
		return fmt.Errorf("%w: %s", dsnaudit.ErrRejectedAuditData, e.Message)
	case wire.CodeShuttingDown:
		// The server is draining: it never processed the request, so this
		// classifies like a refused dial — retry elsewhere, and an
		// engagement handoff that hits it aborts without any reputation
		// consequence.
		return fmt.Errorf("%w: %s draining: %s", dsnaudit.ErrProviderUnreachable, c.addr, e.Message)
	case wire.CodeOverloaded:
		// The provider is alive but at its proving-admission limit. Not a
		// transport failure and not a refusal to serve the contract: the
		// typed error carries the retry-after hint so the scheduler can back
		// off and re-ask while the challenge is still open, instead of
		// letting the deadline lapse into a slash.
		return &dsnaudit.OverloadedError{RetryAfter: uint64(e.RetryAfter), Detail: fmt.Sprintf("%s: %s", c.addr, e.Message)}
	case wire.CodeBadRequest:
		// The peer could not decode what we sent: a protocol-level
		// failure, not an audit verdict.
		return fmt.Errorf("%w: %s rejected our frame: %s", dsnaudit.ErrBadFrame, c.addr, e.Message)
	default:
		// CodeInternal and unknown codes: the provider is reachable but
		// broken. Not a transport error — under the scheduler the round is
		// missed either way, and the distinct error keeps diagnostics
		// honest.
		return e
	}
}

// reserveID hands out request IDs; IDs are unique per client, which is
// stricter than the per-connection uniqueness the protocol needs.
func (c *Client) reserveID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// ensureConn returns the live connection, dialing and handshaking a new
// one if none exists.
func (c *Client) ensureConn(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	if cc := c.conn; cc != nil {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	// Dial outside the lock; concurrent callers may race to dial, the
	// loser's connection is closed again.
	raw, err := c.dial(ctx, c.addr)
	if err != nil {
		return nil, err
	}
	cc := newClientConn(raw)
	if err := cc.handshake(ctx); err != nil {
		cc.close(err)
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		cc.close(errClientClosed)
		return nil, errClientClosed
	}
	if c.conn != nil {
		cc.close(errors.New("remote: duplicate dial"))
		return c.conn, nil
	}
	c.conn = cc
	return cc, nil
}

// dropConn discards cc if it is still the client's current connection.
func (c *Client) dropConn(cc *clientConn) {
	c.mu.Lock()
	if c.conn == cc {
		c.conn = nil
	}
	c.mu.Unlock()
	cc.close(errors.New("remote: connection dropped"))
}

// clientConn is one live connection: a writer guarded by a mutex and a
// reader goroutine that routes response frames to the pending call that
// owns the request ID.
type clientConn struct {
	c       net.Conn
	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]chan *wire.Frame
	err     error
	done    chan struct{}
}

func newClientConn(c net.Conn) *clientConn {
	cc := &clientConn{
		c:       c,
		pending: make(map[uint64]chan *wire.Frame),
		done:    make(chan struct{}),
	}
	go cc.readLoop()
	return cc
}

// handshake exchanges Hellos. It runs before any multiplexed call, using
// ID 0, which reserveID never hands out.
func (cc *clientConn) handshake(ctx context.Context) error {
	payload, err := (&wire.Hello{Node: "driver"}).Marshal()
	if err != nil {
		return err
	}
	resp, err := cc.roundTrip(ctx, 0, wire.MsgHello, payload)
	if err != nil {
		return err
	}
	if resp.Type != wire.MsgHello {
		return fmt.Errorf("%w: %v response to hello", dsnaudit.ErrBadFrame, resp.Type)
	}
	if _, err := wire.UnmarshalHello(resp.Payload); err != nil {
		return fmt.Errorf("%w: %v", dsnaudit.ErrBadFrame, err)
	}
	return nil
}

// roundTrip writes one frame and waits for the response with its ID.
func (cc *clientConn) roundTrip(ctx context.Context, id uint64, typ wire.Type, payload []byte) (*wire.Frame, error) {
	ch := make(chan *wire.Frame, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return nil, err
	}
	cc.pending[id] = ch
	cc.mu.Unlock()
	defer func() {
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
	}()

	cc.writeMu.Lock()
	// Bound the write by the call's deadline: an AcceptAuditData frame
	// carries a whole encoded file, and a peer that accepted the dial but
	// stopped reading would otherwise block this write — and the caller —
	// forever, past any call timeout.
	if dl, ok := ctx.Deadline(); ok {
		_ = cc.c.SetWriteDeadline(dl)
	} else {
		_ = cc.c.SetWriteDeadline(time.Time{})
	}
	err := wire.WriteFrame(cc.c, &wire.Frame{Type: typ, ID: id, Payload: payload})
	cc.writeMu.Unlock()
	if err != nil {
		// A failed write may have left a partial frame on the wire;
		// framing is untrustworthy, so the connection dies with it.
		cc.close(fmt.Errorf("remote: write failed: %w", err))
		return nil, err
	}

	select {
	case f := <-ch:
		return f, nil
	case <-cc.done:
		cc.mu.Lock()
		err := cc.err
		cc.mu.Unlock()
		return nil, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// readLoop demultiplexes response frames until the connection dies; then
// every pending and future call on this connection fails with the cause.
func (cc *clientConn) readLoop() {
	for {
		f, err := wire.ReadFrame(cc.c)
		if err != nil {
			if errors.Is(err, wire.ErrBadFrame) {
				err = fmt.Errorf("%w: %v", dsnaudit.ErrBadFrame, err)
			} else if err == io.EOF {
				err = errors.New("remote: connection closed by peer")
			}
			cc.close(err)
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[f.ID]
		if ok {
			// The buffered send never blocks; a duplicate response for the
			// same ID (e.g. a duplicating fault) is dropped here.
			select {
			case ch <- f:
			default:
			}
		}
		cc.mu.Unlock()
	}
}

// close marks the connection dead with a cause and tears down the socket.
func (cc *clientConn) close(cause error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = cause
		close(cc.done)
	}
	cc.mu.Unlock()
	cc.c.Close()
}

// dead reports whether the connection has failed and will never carry
// another call.
func (cc *clientConn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}
