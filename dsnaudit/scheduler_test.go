package dsnaudit_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
)

// outcome is the per-engagement result both drivers are compared on.
type outcome struct {
	passed int
	state  contract.State
}

func key(e *dsnaudit.Engagement) string { return e.Owner.Name + "/" + e.Provider.Name }

// TestSchedulerMatchesSequential drives 12 engagements (an EngageAll set
// spanning all 10 holders of one file, one extra honest engagement, one
// cheater) concurrently on a single chain and checks every per-engagement
// outcome against an identical fixture driven by the sequential RunAll.
// Run under -race this is also the scheduler's synchronization test.
func TestSchedulerMatchesSequential(t *testing.T) {
	const rounds = 2
	ctx := context.Background()

	build := func(t *testing.T) (*fixture, *dsnaudit.EngagementSet) {
		fx := newFixture(t, 12)
		alice, sf := fx.outsource(t, "alice")
		set, err := alice.EngageAll(sf, smallTerms(rounds))
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Engagements) != 10 {
			t.Fatalf("EngageAll produced %d engagements, want 10", len(set.Engagements))
		}
		fx.engs = append(fx.engs, set.Engagements...)
		fx.engage(t, "bob", rounds)
		corrupt(t, fx.engage(t, "carol", rounds))
		return fx, set
	}

	seqFix, _ := build(t)
	want := make(map[string]outcome)
	for _, e := range seqFix.engs {
		passed, err := e.RunAll(ctx)
		if err != nil {
			t.Fatalf("sequential %s: %v", key(e), err)
		}
		want[key(e)] = outcome{passed: passed, state: e.Contract.State()}
	}

	forShards(t, func(t *testing.T, shards sched.Option) {
		fx, set := build(t)
		s := sched.NewScheduler(fx.net, shards, sched.WithWorkers(8))
		if err := s.AddSet(set); err != nil {
			t.Fatal(err)
		}
		for _, e := range fx.engs[len(set.Engagements):] {
			if err := s.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(ctx); err != nil {
			t.Fatal(err)
		}

		for _, e := range fx.engs {
			res, ok := s.Result(e.ID())
			if !ok {
				t.Fatalf("no scheduler result for %s", key(e))
			}
			if res.Err != nil {
				t.Fatalf("%s errored: %v", key(e), res.Err)
			}
			w, ok := want[key(e)]
			if !ok {
				t.Fatalf("fixtures diverged: %s missing from sequential run", key(e))
			}
			if res.Passed != w.passed || res.State != w.state {
				t.Errorf("%s: scheduler passed=%d state=%v, sequential passed=%d state=%v",
					key(e), res.Passed, res.State, w.passed, w.state)
			}
		}

		// Aggregate accounting: the set's 10 contracts all expired; the
		// cheater aborted and was slashed exactly as in the sequential run.
		sum := set.Summary()
		if sum.Expired != 10 || sum.RoundsPassed != 10*rounds || sum.RoundsFailed != 0 {
			t.Fatalf("set summary %+v", sum)
		}
		if !set.AllPassed() {
			t.Fatal("AllPassed false for an honest set")
		}
		cheater := fx.engs[len(fx.engs)-1]
		if cheater.Contract.State() != contract.StateAborted {
			t.Fatalf("cheater state %v, want ABORTED", cheater.Contract.State())
		}
	})
}

// blockingResponder blocks until its context is canceled, signaling entered
// the first time it is invoked.
type blockingResponder struct {
	entered chan struct{}
	fired   bool
}

func (b *blockingResponder) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	if !b.fired {
		b.fired = true
		close(b.entered)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestSchedulerCancellation proves a canceled context aborts mid-round
// without deadlocking the block loop, and that a later Run resumes the
// interrupted engagement from its open challenge.
func TestSchedulerCancellation(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newFixture(t, 10)
		eng := fx.engage(t, "zoe", 2)
		slow := &blockingResponder{entered: make(chan struct{})}
		eng.Responder = slow

		s := fx.scheduler(t, shards, sched.WithWorkers(2))
		ctx, cancel := context.WithCancel(context.Background())
		goroutines := runtime.NumGoroutine()
		runErr := make(chan error, 1)
		go func() { runErr <- s.Run(ctx) }()

		// Wait until the proof job is genuinely in flight, then cancel.
		select {
		case <-slow.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("responder never invoked")
		}
		cancel()
		select {
		case err := <-runErr:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("scheduler deadlocked after cancellation")
		}

		// Run took its goroutines — the prove workers and the settlement
		// stage, nothing else — with it.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Run returned, %d before it started", runtime.NumGoroutine(), goroutines)
			}
			time.Sleep(time.Millisecond)
		}

		// The chain is not wedged: it still mines, and the block it hands
		// back is the new head.
		if blk := fx.net.Chain.MineBlock(); blk.Number != fx.net.Chain.Height() {
			t.Fatalf("mined block %d at height %d", blk.Number, fx.net.Chain.Height())
		}

		// The interrupted round stayed open; a fresh Run with the real
		// responder resumes from PROVE and completes the contract.
		if eng.Contract.State() != contract.StateProve {
			t.Fatalf("state after cancel %v, want PROVE", eng.Contract.State())
		}
		eng.Responder = eng.Provider
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, _ := s.Result(eng.ID())
		if res.Passed != 2 || eng.Contract.State() != contract.StateExpired {
			t.Fatalf("after resume: passed=%d state=%v", res.Passed, eng.Contract.State())
		}
	})
}

// resumableResponder blocks its first call until the context is canceled
// (signaling entered), then delegates every later call to the real
// provider. It models a provider that was mid-proof when the scheduler's
// operator pulled the plug.
type resumableResponder struct {
	p       *dsnaudit.ProviderNode
	entered chan struct{}
	blocked bool
}

func (r *resumableResponder) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	if !r.blocked {
		r.blocked = true
		close(r.entered)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return r.p.Respond(ctx, addr, ch)
}

// TestSchedulerCancelDoesNotSlashHonestProviders is the regression test for
// a settlement race: with several engagements in flight, a worker's
// ctx-cancellation error can reach submit before the block loop notices the
// cancellation. That error must be attributed to the cancellation, not the
// responder — otherwise the next Run walks the engagement into MissDeadline
// and slashes an honest provider.
func TestSchedulerCancelDoesNotSlashHonestProviders(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		for iter := 0; iter < 3; iter++ {
			fx := newFixture(t, 10)
			var responders []*resumableResponder
			for i := 0; i < 2; i++ {
				eng := fx.engage(t, fmt.Sprintf("hon-%d", i), 1)
				r := &resumableResponder{p: eng.Provider, entered: make(chan struct{})}
				eng.Responder = r
				responders = append(responders, r)
			}

			s := fx.scheduler(t, shards, sched.WithWorkers(2))
			ctx, cancel := context.WithCancel(context.Background())
			runErr := make(chan error, 1)
			go func() { runErr <- s.Run(ctx) }()
			for _, r := range responders {
				select {
				case <-r.entered:
				case <-time.After(5 * time.Second):
					t.Fatal("responder never invoked")
				}
			}
			cancel()
			if err := <-runErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("iter %d: Run returned %v", iter, err)
			}

			// Resume: both engagements must complete cleanly. An honest
			// provider must never be slashed because of our cancellation.
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, e := range fx.engs {
				res, _ := s.Result(e.ID())
				if res.Failed != 0 || res.State != contract.StateExpired {
					t.Fatalf("iter %d eng %d: honest provider penalized: %+v (state %v)",
						iter, i, res, e.Contract.State())
				}
			}
		}
	})
}

// TestSchedulerAddValidation covers the registration sentinels.
func TestSchedulerAddValidation(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newFixture(t, 10)
		eng := fx.engage(t, "val", 1)
		s := fx.scheduler(t, shards)
		if err := s.Add(eng); !errors.Is(err, dsnaudit.ErrAlreadyScheduled) {
			t.Fatalf("duplicate add: %v", err)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// A finished engagement cannot be scheduled again.
		eng2 := fx.engage(t, "val2", 1)
		if _, err := eng2.RunAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := sched.NewScheduler(fx.net, shards).Add(eng2); !errors.Is(err, dsnaudit.ErrContractClosed) {
			t.Fatalf("closed add: %v", err)
		}
		// And the sequential driver refuses it too.
		if _, err := eng2.RunRound(context.Background()); !errors.Is(err, dsnaudit.ErrContractClosed) {
			t.Fatalf("closed RunRound: %v", err)
		}
	})
}

// TestSchedulerRunExclusive verifies a second concurrent Run is rejected.
func TestSchedulerRunExclusive(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newFixture(t, 10)
		slow := &blockingResponder{entered: make(chan struct{})}
		fx.engage(t, "ex", 1).Responder = slow
		s := fx.scheduler(t, shards, sched.WithWorkers(1))
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.Run(ctx) }()
		<-slow.entered
		if err := s.Run(ctx); !errors.Is(err, dsnaudit.ErrSchedulerRunning) {
			t.Fatalf("second Run: %v", err)
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("first Run: %v", err)
		}
	})
}
