package core

import (
	"context"
	"crypto/rand"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// proverFixture builds a prover over a moderately sized file so a proof
// takes long enough to observe cancellation behavior.
func proverFixture(t testing.TB, bytes, s int) (*Prover, *Challenge) {
	t.Helper()
	sk, err := KeyGen(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, bytes)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	ef, err := EncodeFile(data, s)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(sk.Pub, ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChallenge(ef.NumChunks(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return prover, ch
}

func TestProveCtxCanceledUpFront(t *testing.T) {
	prover, ch := proverFixture(t, 4000, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prover.ProvePrivateCtx(ctx, ch, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := prover.proveCtx(ctx, ch, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProveCtxCanceledMidProof(t *testing.T) {
	// A deadline that lands inside the MSM work: the prover must abort with
	// the deadline error rather than finish and succeed. The file is large
	// enough that proving takes well beyond the deadline.
	prover, ch := proverFixture(t, 120_000, 8)
	start := time.Now()
	full, err := prover.ProvePrivateCtx(context.Background(), ch, nil, nil)
	if err != nil || full == nil {
		t.Fatalf("uncancelled proof failed: %v", err)
	}
	fullTime := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), fullTime/20)
	defer cancel()
	start = time.Now()
	_, err = prover.ProvePrivateCtx(ctx, ch, nil, nil)
	aborted := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The abort must be prompt: well under the full proving time.
	if aborted > fullTime/2+50*time.Millisecond {
		t.Fatalf("cancellation took %v of a %v proof: not cooperative", aborted, fullTime)
	}
}

// cancelAfterPolls is a context that cancels itself once its Err has answered
// for the at-th time: that poll still reads nil, the next context.Canceled.
// (bn256's cancelOnPoll cancels before answering, which the MSM itself reports.)
type cancelAfterPolls struct {
	context.Context
	cancel context.CancelFunc
	at     int64 // 0 never cancels, and only counts
	polls  atomic.Int64
}

func (c *cancelAfterPolls) Err() error {
	err := c.Context.Err()
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
	return err
}

// readCounter counts the bytes drawn through it.
type readCounter struct{ n int }

func (r *readCounter) Read(p []byte) (int, error) {
	r.n += len(p)
	return rand.Read(p)
}

// TestProvePrivateCtxCanceledBeforeCommitment: a context canceled by the last
// poll inside the psi MSM -- after which buildResponse returns without error
// -- must still stop the proof before the commitment R = e(g1, eps)^z, the
// most expensive step of a small proof, and before z is drawn.
func TestProvePrivateCtxCanceledBeforeCommitment(t *testing.T) {
	prover, ch := proverFixture(t, 4000, 4)
	prover.Workers = 1 // one goroutine: the number of polls is fixed
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	counter := &cancelAfterPolls{Context: inner, cancel: cancel}
	if _, _, _, err := prover.buildResponse(counter, ch, nil); err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfterPolls{Context: inner, cancel: cancel, at: counter.polls.Load()}
	rng := &readCounter{}
	if _, err := prover.ProvePrivateCtx(ctx, ch, nil, rng); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rng.n != 0 {
		t.Fatalf("a canceled proof drew %d bytes of randomness", rng.n)
	}
}

func TestProveCtxMatchesProve(t *testing.T) {
	// The ctx plumbing must not change results: ProveCtx with a live
	// context produces the exact proof Prove does.
	prover, ch := proverFixture(t, 4000, 4)
	a, err := prover.Prove(ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prover.proveCtx(context.Background(), ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Sigma.Equal(b.Sigma) || !a.Psi.Equal(b.Psi) || a.Y != b.Y {
		t.Fatal("ProveCtx result differs from Prove")
	}
}
