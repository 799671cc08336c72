package dsnaudit_test

import (
	"context"
	"testing"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/chain"
	"repro/internal/contract"
)

// TestOutcomeHooksReplacePolling pins the outcome-hook contract: every
// engagement's terminal result is pushed to outcome hooks exactly once, at
// the moment it lands, carrying the same accounting Results() reports —
// drivers do not need to poll.
func TestOutcomeHooksReplacePolling(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newFixture(t, 10)
		honest := fx.engage(t, "honest", 2)
		cheat := fx.engage(t, "cheat", 2)
		corrupt(t, cheat)
		s := fx.scheduler(t, shards)

		// Hooks run synchronously on the Run goroutine: no synchronization
		// needed to collect from them.
		got := make(map[chain.Address][]dsnaudit.Outcome)
		s.OnOutcome(func(out dsnaudit.Outcome) {
			got[out.ID] = append(got[out.ID], out)
		})
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}

		results := s.Results()
		if len(got) != len(results) {
			t.Fatalf("hooks saw %d engagements, Results has %d", len(got), len(results))
		}
		for id, res := range results {
			outs := got[id]
			if len(outs) != 1 {
				t.Fatalf("engagement %s delivered %d outcomes, want exactly 1", id, len(outs))
			}
			if outs[0].Result != res {
				t.Fatalf("hook outcome %+v != polled result %+v", outs[0].Result, res)
			}
			if outs[0].Eng == nil || outs[0].Eng.ID() != id {
				t.Fatalf("outcome for %s carries wrong engagement", id)
			}
		}
		if got[honest.ID()][0].Result.State != contract.StateExpired {
			t.Fatalf("honest outcome %+v, want EXPIRED", got[honest.ID()][0].Result)
		}
		if got[cheat.ID()][0].Result.State != contract.StateAborted {
			t.Fatalf("cheater outcome %+v, want ABORTED", got[cheat.ID()][0].Result)
		}
	})
}

// TestOutcomeHookMayAddEngagement pins the re-engagement contract the
// repair subsystem builds on: a hook may register a follow-up engagement,
// and the same Run drives it to completion — even when the follow-up is
// added while the scheduler is on its way out with no other active entry.
func TestOutcomeHookMayAddEngagement(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newFixture(t, 10)
		honest := fx.engage(t, "honest", 1)
		s := fx.scheduler(t, shards)

		var followUp *dsnaudit.Engagement
		s.OnOutcome(func(out dsnaudit.Outcome) {
			if followUp != nil || out.ID != honest.ID() {
				return
			}
			// Re-engage on a fresh contract, as repair would.
			followUp = fx.engage(t, "follow-up", 1)
			if err := s.Add(followUp); err != nil {
				t.Errorf("add in hook: %v", err)
			}
		})
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if followUp == nil {
			t.Fatal("outcome hook never fired")
		}
		res, ok := s.Results()[followUp.ID()]
		if !ok {
			t.Fatal("follow-up engagement has no result; it was stranded")
		}
		if res.State != contract.StateExpired || res.Passed != 1 {
			t.Fatalf("follow-up result %+v, want 1 passed round and EXPIRED", res)
		}
	})
}

// TestBlockHooksSeeEveryTick pins the block-hook contract: one call per
// scheduler tick, heights strictly increasing.
func TestBlockHooksSeeEveryTick(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newFixture(t, 10)
		fx.engage(t, "honest", 2)
		s := fx.scheduler(t, shards)
		var heights []uint64
		s.OnBlock(func(h uint64) { heights = append(heights, h) })
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(heights) == 0 {
			t.Fatal("block hook never fired")
		}
		if uint64(len(heights)) != s.Stats().Ticks {
			t.Fatalf("block hook fired %d times over %d ticks", len(heights), s.Stats().Ticks)
		}
		for i := 1; i < len(heights); i++ {
			if heights[i] <= heights[i-1] {
				t.Fatalf("heights not strictly increasing: %v", heights)
			}
		}
	})
}
