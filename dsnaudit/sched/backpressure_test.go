package sched

import (
	"context"
	"sync"
	"testing"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/dsntest"
)

// miniNet builds a world of providers sp-a, sp-b, ..., and an owner that
// has outsourced one file name, engaged on its first holder.
func miniNet(t *testing.T, seed string, providers int, name string, rounds int) (*dsnaudit.Network, *dsnaudit.Engagement) {
	t.Helper()
	w, err := dsntest.NewWorld(seed, dsntest.Eth(1), dsntest.Names("sp-%c", 'a', providers)...)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := w.Owner("owner", 4, dsntest.Eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := dsntest.Pattern(500, 7)
	for i := range data {
		data[i] += byte(len(name))
	}
	sf, err := owner.Outsource(name, data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := owner.EngageWith(context.Background(), sf, sf.Holders[0], sf.Holders[0], dsntest.SmallTerms(rounds))
	if err != nil {
		t.Fatal(err)
	}
	return w.Net, eng
}

// overloadResponder refuses the first `left` challenges with a hinted
// OverloadedError, then delegates to the real provider.
type overloadResponder struct {
	mu   sync.Mutex
	left int
	next dsnaudit.Responder
}

func (r *overloadResponder) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	r.mu.Lock()
	if r.left > 0 {
		r.left--
		r.mu.Unlock()
		return nil, &dsnaudit.OverloadedError{RetryAfter: 2, Detail: "test saturation"}
	}
	r.mu.Unlock()
	return r.next.Respond(ctx, addr, ch)
}

// TestOverloadRetryDoesNotSlash pins the backpressure invariant: a
// provider that answers "overloaded, retry later" is alive and honest, so
// the scheduler re-asks after the hinted backoff and the engagement ends
// fully passed — ErrOverloaded is not a slashable offense.
func TestOverloadRetryDoesNotSlash(t *testing.T) {
	net, eng := miniNet(t, "overload-retry", 10, "retry-file", 2)
	eng.Responder = &overloadResponder{left: 3, next: eng.Provider}

	sched := NewScheduler(net, WithParallelism(2))
	if err := sched.Add(eng); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	res, ok := sched.Result(eng.ID())
	if !ok {
		t.Fatal("no result")
	}
	if res.Failed != 0 || res.Passed != 2 || res.State != contract.StateExpired {
		t.Fatalf("overloaded-then-honest provider punished: %+v", res)
	}
	st := sched.Stats()
	if st.Overloads != 3 {
		t.Fatalf("overloads = %d, want 3", st.Overloads)
	}
	if st.Retries != 3 {
		t.Fatalf("retries = %d, want 3", st.Retries)
	}
}

// alwaysOverloaded never stops refusing.
type alwaysOverloaded struct{}

func (alwaysOverloaded) Respond(context.Context, chain.Address, *core.Challenge) ([]byte, error) {
	return nil, &dsnaudit.OverloadedError{RetryAfter: 1, Detail: "permanently saturated"}
}

// TestPersistentOverloadEventuallySlashes bounds the grace: a provider that
// never stops refusing is indistinguishable from an absent one, so after
// maxOverloadRetries the engagement falls to the proof-deadline path and
// the deposit is slashed.
func TestPersistentOverloadEventuallySlashes(t *testing.T) {
	net, eng := miniNet(t, "overload-slash", 10, "slash-file", 1)
	eng.Responder = alwaysOverloaded{}

	sched := NewScheduler(net)
	if err := sched.Add(eng); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	res, ok := sched.Result(eng.ID())
	if !ok {
		t.Fatal("no result")
	}
	if res.State != contract.StateAborted || res.Failed != 1 {
		t.Fatalf("persistently overloaded provider not slashed: %+v", res)
	}
	if st := sched.Stats(); st.Overloads != 17 {
		t.Fatalf("overloads = %d, want initial attempt + 16 retries", st.Overloads)
	}
	if bal := net.Chain.Balance(chain.Address(eng.Provider.Name)); bal.Cmp(dsntest.Eth(1)) >= 0 {
		t.Fatalf("provider balance %s did not lose its deposit", bal)
	}
}
