package remote

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/dsnaudit"
	"repro/internal/contract"
	"repro/internal/core"
)

// faultConfig describes a deterministic adversarial network. Rates are
// probabilities in [0, 1] evaluated per frame (WriteFrame issues exactly
// one Write per frame, so conn-level writes are frame-aligned); the seeded
// RNG makes every schedule of drops, delays, duplicates and corruptions
// reproducible.
type faultConfig struct {
	Seed        int64
	DropRate    float64       // frame silently discarded
	DelayRate   float64       // frame delivered after Delay
	Delay       time.Duration // the injected latency
	DupRate     float64       // frame written twice
	CorruptRate float64       // one payload byte flipped
}

// faultTransport wraps a net.Conn and injects the configured faults into
// the write path. Both ends of a protocol exchange can be wrapped;
// faultClient wraps the client side.
type faultTransport struct {
	net.Conn
	cfg faultConfig

	mu  sync.Mutex
	rng *rand.Rand
}

// newFaultTransport wraps conn with the given fault schedule.
func newFaultTransport(conn net.Conn, cfg faultConfig) *faultTransport {
	return &faultTransport{Conn: conn, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// faultDialer returns a client dialer that dials TCP and wraps every connection
// in a faultTransport. Connection i uses seed cfg.Seed+i, so re-dials see
// fresh — but still reproducible — fault schedules.
func faultDialer(cfg faultConfig) func(ctx context.Context, addr string) (net.Conn, error) {
	var mu sync.Mutex
	conns := int64(0)
	return func(ctx context.Context, addr string) (net.Conn, error) {
		d := net.Dialer{Timeout: DefaultDialTimeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		c := cfg
		c.Seed += conns
		conns++
		mu.Unlock()
		return newFaultTransport(conn, c), nil
	}
}

// Write applies the fault schedule to one frame-aligned write. The checks
// draw from the RNG in a fixed order (drop, delay, duplicate, corrupt) so
// a given seed always produces the same schedule.
func (f *faultTransport) Write(p []byte) (int, error) {
	f.mu.Lock()
	drop := f.roll(f.cfg.DropRate)
	delay := f.roll(f.cfg.DelayRate)
	dup := f.roll(f.cfg.DupRate)
	corrupt := -1
	if f.roll(f.cfg.CorruptRate) && len(p) > 0 {
		corrupt = f.rng.Intn(len(p))
	}
	f.mu.Unlock()

	if drop {
		// The peer never sees the frame; the writer believes it landed.
		return len(p), nil
	}
	if delay {
		time.Sleep(f.cfg.Delay)
	}
	if corrupt >= 0 {
		mangled := append([]byte(nil), p...)
		mangled[corrupt] ^= 0xFF
		p = mangled
	}
	n, err := f.Conn.Write(p)
	if err != nil {
		return n, err
	}
	if dup {
		if _, err := f.Conn.Write(p); err != nil {
			return len(p), err
		}
	}
	return len(p), nil
}

// roll draws one Bernoulli sample. It always consumes RNG state, even at
// rate 0, so enabling one fault type does not shift another's schedule.
func (f *faultTransport) roll(rate float64) bool {
	return f.rng.Float64() < rate
}

// faultClient builds a client whose connections run through a
// faultTransport with the given config.
func faultClient(addr string, cfg faultConfig, opts ...ClientOption) *Client {
	c := NewClient(addr, opts...)
	c.dial = faultDialer(cfg)
	return c
}

// TestFaultDropCausesTimeout pins the slow-loris shape: frames vanish on
// the wire, the per-call deadline expires, and the error is the timeout
// sentinel the scheduler maps to a missed round.
func TestFaultDropCausesTimeout(t *testing.T) {
	node := dsnaudit.NewProviderNode("fault-sp")
	addr, _ := startServer(t, node)
	client := faultClient(addr, faultConfig{Seed: 1, DropRate: 1},
		WithCallTimeout(400*time.Millisecond), WithRetries(0))
	defer client.Close()

	err := client.Ping(context.Background())
	if !errors.Is(err, dsnaudit.ErrResponseTimeout) {
		t.Fatalf("ping over a black-hole transport: %v, want ErrResponseTimeout", err)
	}
}

// TestFaultCorruptionFailsRound pins the corruption path end to end: every
// client frame has one byte flipped, the round cannot complete, and the
// engagement takes the missed-round slashing path instead of hanging.
func TestFaultCorruptionFailsRound(t *testing.T) {
	fx := buildFixture(t, "fault-corrupt")
	node := dsnaudit.NewProviderNode("fault-sp")
	addr, _ := startServer(t, node)

	// Audit data is delivered over a clean client (initialization
	// succeeds), then the network turns hostile for the rounds.
	clean := NewClient(addr)
	defer clean.Close()
	holder := fx.sf.Holders[0]
	eng, err := fx.owner.EngageWith(context.Background(), fx.sf, holder, clean, smallTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	corrupting := faultClient(addr, faultConfig{Seed: 7, CorruptRate: 1},
		WithCallTimeout(500*time.Millisecond), WithRetries(2), withRetryBackoff(10*time.Millisecond))
	defer corrupting.Close()
	eng.Responder = corrupting

	ok, err := eng.RunRound(context.Background())
	if err != nil {
		t.Fatalf("corrupted round should settle as missed, got %v", err)
	}
	if ok {
		t.Fatal("round passed over a fully corrupting transport")
	}
	if got := eng.Contract.State(); got != contract.StateAborted {
		t.Fatalf("state = %v, want ABORTED via the missed-round path", got)
	}
}

// TestFaultCorruptionErrorClass pins that a corrupting transport surfaces
// a transport-class error (bad frame or unreachable after retries drop the
// poisoned connections) — never a silent success.
func TestFaultCorruptionErrorClass(t *testing.T) {
	fx := buildFixture(t, "fault-class")
	node := dsnaudit.NewProviderNode("fault-sp")
	addr, _ := startServer(t, node)
	clean := NewClient(addr)
	defer clean.Close()
	if err := clean.AcceptAuditData(context.Background(), "c", fx.owner.AuditSK.Pub, fx.sf.Encoded, fx.sf.Auths, 2); err != nil {
		t.Fatal(err)
	}
	corrupting := faultClient(addr, faultConfig{Seed: 11, CorruptRate: 1},
		WithCallTimeout(500*time.Millisecond), WithRetries(1), withRetryBackoff(10*time.Millisecond))
	defer corrupting.Close()
	ch, err := core.NewChallenge(4, newDetReader("fault-class"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = corrupting.Respond(context.Background(), "c", ch)
	if err == nil {
		t.Fatal("respond succeeded over a fully corrupting transport")
	}
	if !dsnaudit.IsTransportError(err) {
		t.Fatalf("error %v is not classified as a transport error", err)
	}
}

// TestFaultDuplicationIsHarmless pins idempotence under frame duplication:
// every frame (requests included) is delivered twice, and the audit still
// completes with every round passing — duplicate responses are dropped by
// the request-ID demux.
func TestFaultDuplicationIsHarmless(t *testing.T) {
	fx := buildFixture(t, "fault-dup")
	node := dsnaudit.NewProviderNode("fault-sp")
	addr, _ := startServer(t, node)
	dup := faultClient(addr, faultConfig{Seed: 3, DupRate: 1})
	defer dup.Close()

	holder := fx.sf.Holders[0]
	eng, err := fx.owner.EngageWith(context.Background(), fx.sf, holder, dup, smallTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Contract.State(); got != contract.StateExpired {
		t.Fatalf("state = %v, want EXPIRED", got)
	}
}

// TestFaultDelayWithinDeadline pins that added latency below the call
// timeout only slows the audit, never fails it.
func TestFaultDelayWithinDeadline(t *testing.T) {
	fx := buildFixture(t, "fault-delay")
	node := dsnaudit.NewProviderNode("fault-sp")
	addr, _ := startServer(t, node)
	slow := faultClient(addr,
		faultConfig{Seed: 5, DelayRate: 1, Delay: 30 * time.Millisecond},
		WithCallTimeout(10*time.Second))
	defer slow.Close()

	holder := fx.sf.Holders[0]
	eng, err := fx.owner.EngageWith(context.Background(), fx.sf, holder, slow, smallTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Contract.State(); got != contract.StateExpired {
		t.Fatalf("state = %v, want EXPIRED", got)
	}
}

// TestFaultScheduleIsDeterministic pins the seeded RNG: the same seed
// yields the same drop schedule, a different seed a different one.
func TestFaultScheduleIsDeterministic(t *testing.T) {
	schedule := func(seed int64) []bool {
		ft := newFaultTransport(nil, faultConfig{Seed: seed, DropRate: 0.5})
		out := make([]bool, 64)
		for i := range out {
			ft.mu.Lock()
			out[i] = ft.roll(ft.cfg.DropRate)
			ft.mu.Unlock()
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d", i)
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-frame schedules")
	}
}
