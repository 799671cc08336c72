package dsnaudit_test

import (
	"context"
	"testing"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/contract"
)

// TestSchedulerCompact pins the terminal-entry leak fix: without Compact a
// long-lived scheduler retains every finished engagement forever; with it
// terminal entries (and only terminal entries) are dropped, and accounting
// for them moves to the outcome hooks.
func TestSchedulerCompact(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newFixture(t, 10)
		eng1 := fx.engage(t, "alice", 2)

		var outcomes []dsnaudit.Outcome
		s := fx.scheduler(t, shards, sched.WithParallelism(2))
		s.OnOutcome(func(o dsnaudit.Outcome) {
			outcomes = append(outcomes, o)
		})
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if eng1.Contract.State() != contract.StateExpired {
			t.Fatalf("contract state %v, want EXPIRED", eng1.Contract.State())
		}
		if len(s.Results()) != 1 {
			t.Fatalf("pre-compact Results has %d entries, want 1", len(s.Results()))
		}

		// A second, not-yet-driven engagement must survive compaction.
		eng2 := fx.engage(t, "bob", 2)
		if err := s.Add(eng2); err != nil {
			t.Fatal(err)
		}

		if dropped := s.Compact(); dropped != 1 {
			t.Fatalf("Compact dropped %d entries, want 1", dropped)
		}
		if got := s.Stats().Compacted; got != 1 {
			t.Fatalf("Stats().Compacted = %d, want 1", got)
		}
		if _, ok := s.Result(eng1.ID()); ok {
			t.Fatal("compacted engagement still reported by Result")
		}
		if _, ok := s.Result(eng2.ID()); !ok {
			t.Fatal("live engagement lost by Compact")
		}
		if len(s.Results()) != 1 {
			t.Fatalf("post-compact Results has %d entries, want 1", len(s.Results()))
		}

		// The outcome hook delivered eng1's terminal accounting before it
		// became compactable — that is where the numbers live once entries
		// are dropped.
		if len(outcomes) != 1 || outcomes[0].ID != eng1.ID() || outcomes[0].Result.Passed != 2 {
			t.Fatalf("outcome hook saw %+v", outcomes)
		}

		// Compacting again is a no-op; the live engagement still runs to
		// completion afterwards.
		if dropped := s.Compact(); dropped != 0 {
			t.Fatalf("second Compact dropped %d entries, want 0", dropped)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, ok := s.Result(eng2.ID())
		if !ok || res.Passed != 2 {
			t.Fatalf("post-compact run result = %+v (ok=%v)", res, ok)
		}
	})
}
