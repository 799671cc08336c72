package sched

import (
	"context"
	"sync"
	"testing"

	"repro/dsnaudit"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
)

func miniNet(t *testing.T, seed string, providers int) (*dsnaudit.Network, *dsnaudit.Owner) {
	t.Helper()
	b, err := beacon.NewTrusted([]byte(seed))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < providers; i++ {
		if _, err := net.AddProvider("sp-"+string(rune('a'+i)), eth(1)); err != nil {
			t.Fatal(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "owner", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	return net, owner
}

func outsourceOrDie(t *testing.T, o *dsnaudit.Owner, name string) *dsnaudit.StoredFile {
	t.Helper()
	data := make([]byte, 500)
	for i := range data {
		data[i] = byte(i*7 + len(name))
	}
	sf, err := o.Outsource(name, data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return sf
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
	net, owner := miniNet(t, "overload-retry", 10)
	sf := outsourceOrDie(t, owner, "retry-file")
	eng, err := owner.Engage(sf, sf.Holders[0], smallTerms(2))
	if err != nil {
		t.Fatal(err)
	}
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
	net, owner := miniNet(t, "overload-slash", 10)
	sf := outsourceOrDie(t, owner, "slash-file")
	eng, err := owner.Engage(sf, sf.Holders[0], smallTerms(1))
	if err != nil {
		t.Fatal(err)
	}
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
	if bal := net.Chain.Balance(chain.Address(eng.Provider.Name)); bal.Cmp(eth(1)) >= 0 {
		t.Fatalf("provider balance %s did not lose its deposit", bal)
	}
}
