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
	"repro/internal/dsntest"
)

// outcome is the per-engagement result the scheduler and the reference
// driver are compared on.
type outcome struct {
	passed int
	state  contract.State
}

func key(e *dsnaudit.Engagement) string { return e.Owner.Name + "/" + e.Provider.Name }

// TestSchedulerMatchesSequential drives 12 engagements on one chain — an
// EngageAll set spanning all 10 holders of one file, one extra honest
// engagement and one cheater — through the scheduler and checks every
// per-engagement outcome against the reference driver. Run under -race this
// is also the scheduler's synchronization test.
func TestSchedulerMatchesSequential(t *testing.T) {
	const rounds = 2
	matchSequential(t, rounds, func(t *testing.T) (*fixture, *dsnaudit.EngagementSet, int) {
		fx := newFixture(t, 12)
		alice, sf := fx.outsource(t, "alice")
		set, err := alice.EngageAll(sf, dsntest.SmallTerms(rounds))
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Engagements) != 10 {
			t.Fatalf("EngageAll produced %d engagements, want 10", len(set.Engagements))
		}
		fx.engs = append(fx.engs, set.Engagements...)
		fx.engage(t, "bob", rounds)
		corrupt(t, fx.engage(t, "carol", rounds))
		return fx, set, len(fx.engs) - 1
	})
}

// TestSequentialDriverMatchesScheduler runs matchSequential on the block
// fixture: 4 engagements challenged at the same heights, so their proofs
// share settle blocks, one of them a cheater.
func TestSequentialDriverMatchesScheduler(t *testing.T) {
	const n, rounds, cheater = 4, 2, 1
	matchSequential(t, rounds, func(t *testing.T) (*fixture, *dsnaudit.EngagementSet, int) {
		return newBlockFixture(t, n, rounds, map[int]bool{cheater: true}), nil, cheater
	})
}

// matchSequential builds a workload twice. It runs the first copy round by
// round through the reference driver (dsnaudit.DriveRounds), which settles
// each proof alone, and the second through the scheduler, once per forShards
// subtest, and checks that every per-engagement outcome agrees. In both runs
// the cheater aborts with no round passed and every other engagement
// expires with every round passed. build deploys the workload; set, when
// non-nil, holds the first engagements of fx.engs, and cheater indexes
// fx.engs.
func matchSequential(t *testing.T, rounds int, build func(t *testing.T) (fx *fixture, set *dsnaudit.EngagementSet, cheater int)) {
	t.Helper()
	ctx := context.Background()

	seqFix, _, cheater := build(t)
	var seqKeys []string
	var want []outcome
	for i, e := range seqFix.engs {
		passed, err := dsnaudit.DriveRounds(ctx, e, rounds)
		if err != nil {
			t.Fatalf("sequential %s: %v", key(e), err)
		}
		got := outcome{passed: passed, state: e.Contract.State()}
		exp := outcome{passed: rounds, state: contract.StateExpired}
		if i == cheater {
			exp = outcome{passed: 0, state: contract.StateAborted}
		}
		if got != exp {
			t.Fatalf("sequential %s: passed=%d state=%v, want passed=%d state=%v",
				key(e), got.passed, got.state, exp.passed, exp.state)
		}
		seqKeys = append(seqKeys, key(e))
		want = append(want, got)
	}

	forShards(t, func(t *testing.T, shards sched.Option) {
		fx, set, _ := build(t)
		s := sched.NewScheduler(fx.net, shards, sched.WithWorkers(8))
		registered := 0
		if set != nil {
			if err := s.AddSet(set); err != nil {
				t.Fatal(err)
			}
			registered = len(set.Engagements)
		}
		for _, e := range fx.engs[registered:] {
			if err := s.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(ctx); err != nil {
			t.Fatal(err)
		}

		if len(fx.engs) != len(want) {
			t.Fatalf("fixtures diverged: %d engagements, sequential ran %d", len(fx.engs), len(want))
		}
		for i, e := range fx.engs {
			if key(e) != seqKeys[i] {
				t.Fatalf("fixtures diverged: engagement %d is %s, sequential ran %s", i, key(e), seqKeys[i])
			}
			res, ok := s.Results()[e.ID()]
			if !ok {
				t.Fatalf("no scheduler result for %s", key(e))
			}
			if res.Err != nil {
				t.Fatalf("%s errored: %v", key(e), res.Err)
			}
			if got := (outcome{passed: res.Passed, state: res.State}); got != want[i] {
				t.Errorf("%s: scheduler passed=%d state=%v, sequential passed=%d state=%v",
					key(e), got.passed, got.state, want[i].passed, want[i].state)
			}
		}

		// Aggregate accounting: the set's 10 contracts all expired.
		if set != nil {
			sum := set.Summary()
			if sum.Expired != 10 || sum.RoundsPassed != 10*rounds || sum.RoundsFailed != 0 {
				t.Fatalf("set summary %+v", sum)
			}
			if !set.AllPassed() {
				t.Fatal("AllPassed false for an honest set")
			}
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
		res, _ := s.Results()[eng.ID()]
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
				res, _ := s.Results()[e.ID()]
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
		s2 := sched.NewScheduler(fx.net, shards)
		if err := s2.Add(eng2); err != nil {
			t.Fatal(err)
		}
		if err := s2.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := sched.NewScheduler(fx.net, shards).Add(eng2); !errors.Is(err, dsnaudit.ErrContractClosed) {
			t.Fatalf("closed add: %v", err)
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
