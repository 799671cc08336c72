package dsnaudit_test

import (
	"context"
	"fmt"
	"testing"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/dsntest"
)

// The scheduler tests of this directory live in the external test package:
// the engine they drive, dsnaudit/sched, imports dsnaudit.

// fixture is the one deployment every scheduler test here builds on: a
// world of funded providers, seeded by the test's name, and the engagements
// deployed on it, in the order they are to be registered.
type fixture struct {
	world *dsntest.World
	net   *dsnaudit.Network
	engs  []*dsnaudit.Engagement
}

func newFixture(t *testing.T, providers int) *fixture {
	t.Helper()
	w, err := dsntest.NewWorld(t.Name(), dsntest.Eth(1), dsntest.Names("%c-provider", 'a', providers)...)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{world: w, net: w.Net}
}

// outsource creates a funded owner and has it outsource one 3-of-10 file.
func (fx *fixture) outsource(t *testing.T, owner string) (*dsnaudit.Owner, *dsnaudit.StoredFile) {
	t.Helper()
	o, err := fx.world.Owner(owner, 4, dsntest.Eth(1))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := o.Outsource(owner+"-file", dsntest.Pattern(600, 3), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return o, sf
}

// engage deploys one engagement — a fresh owner and the primary holder of
// its file — and appends it to the fixture. Engagements with equal rounds
// all trigger at the same heights, so their proofs share settle blocks.
func (fx *fixture) engage(t *testing.T, owner string, rounds int) *dsnaudit.Engagement {
	t.Helper()
	o, sf := fx.outsource(t, owner)
	eng, err := o.EngageWith(context.Background(), sf, sf.Holders[0], sf.Holders[0], dsntest.SmallTerms(rounds))
	if err != nil {
		t.Fatal(err)
	}
	fx.engs = append(fx.engs, eng)
	return eng
}

// corrupt turns an engagement's provider into a cheater: every chunk of its
// audit state is corrupted, so each proof it produces fails verification.
func corrupt(t *testing.T, eng *dsnaudit.Engagement) {
	t.Helper()
	if err := dsntest.Corrupt(eng); err != nil {
		t.Fatal(err)
	}
}

// newBlockFixture deploys n engagements that all challenge at the same
// trigger height; those whose index is in cheaters are corrupted.
func newBlockFixture(t *testing.T, n, rounds int, cheaters map[int]bool) *fixture {
	t.Helper()
	fx := newFixture(t, 16)
	for i := 0; i < n; i++ {
		eng := fx.engage(t, fmt.Sprintf("owner-%02d", i), rounds)
		if cheaters[i] {
			corrupt(t, eng)
		}
	}
	return fx
}

// scheduler registers every engagement of the fixture on a new scheduler.
func (fx *fixture) scheduler(t *testing.T, opts ...sched.Option) *sched.Scheduler {
	t.Helper()
	s := sched.NewScheduler(fx.net, opts...)
	for _, e := range fx.engs {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// run drives the fixture to completion on a new scheduler.
func (fx *fixture) run(t *testing.T, opts ...sched.Option) *sched.Scheduler {
	t.Helper()
	s := fx.scheduler(t, opts...)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// forShards runs fn as a subtest with WithShards(1) and with WithShards(4),
// the value bench/ passes: the scheduler ignores the option, so behavior must
// not depend on it.
func forShards(t *testing.T, fn func(t *testing.T, shards sched.Option)) {
	for _, n := range []int{1, 4} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, sched.WithShards(n)) })
	}
}
