package dsnaudit_test

import (
	"testing"

	"repro/dsnaudit/sched"
	"repro/internal/obs"
)

// TestTracerLifecycle drives one honest 3-round engagement through the
// scheduler with a tracer attached and checks the emitted event stream
// replays the full audit lifecycle: challenge -> proof -> settled(passed)
// for each round, in order, with consistent round numbers and
// non-decreasing chain heights. This is the in-process twin of the CLI's
// -trace JSONL output, so the schema asserted here is the one the README
// documents.
func TestTracerLifecycle(t *testing.T) {
	const rounds = 3
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newFixture(t, 12)
		eng := fx.engage(t, "tracy", rounds)

		ring := obs.NewRingSink(64)
		s := fx.run(t, shards, sched.WithTracer(obs.NewTracer(ring)), sched.WithMetrics(obs.NewRegistry()))
		res, ok := s.Result(eng.ID())
		if !ok || res.Err != nil || res.Passed != rounds {
			t.Fatalf("engagement result ok=%v res=%+v", ok, res)
		}

		var events []obs.Event
		for _, e := range ring.Events() {
			if e.Engagement == string(eng.ID()) {
				events = append(events, e)
			}
		}
		want := []struct {
			typ    string
			round  int
			detail string
		}{
			{obs.EvChallenge, 0, ""}, {obs.EvProof, 0, ""}, {obs.EvSettled, 0, "passed"},
			{obs.EvChallenge, 1, ""}, {obs.EvProof, 1, ""}, {obs.EvSettled, 1, "passed"},
			{obs.EvChallenge, 2, ""}, {obs.EvProof, 2, ""}, {obs.EvSettled, 2, "passed"},
		}
		if len(events) != len(want) {
			t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
		}
		var lastHeight uint64
		for i, e := range events {
			if e.Type != want[i].typ || e.Round != want[i].round || e.Detail != want[i].detail {
				t.Errorf("event %d = {%s round=%d detail=%q}, want {%s round=%d detail=%q}",
					i, e.Type, e.Round, e.Detail, want[i].typ, want[i].round, want[i].detail)
			}
			if e.Height < lastHeight {
				t.Errorf("event %d height %d went backwards from %d", i, e.Height, lastHeight)
			}
			lastHeight = e.Height
			if e.Time.IsZero() {
				t.Errorf("event %d has a zero timestamp", i)
			}
		}

		// The counters behind the dsn_sched_* series must agree with the
		// trace: three challenges, three proofs, three settled rounds, no
		// slashes.
		stats := s.Stats()
		if stats.Challenges != rounds || stats.Proofs != rounds ||
			stats.SettledRounds != rounds || stats.Slashes != 0 {
			t.Fatalf("Stats %+v disagrees with the %d-round trace", stats, rounds)
		}
		if got := ring.Total(); got != uint64(len(events)) {
			t.Fatalf("ring Total() = %d, want %d", got, len(events))
		}
	})
}

// TestTracerSlashEvents checks the failure half of the lifecycle: a
// provider that corrupts its audit state must produce settled(failed)
// and slashed events for round zero, and nothing after the abort.
func TestTracerSlashEvents(t *testing.T) {
	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newFixture(t, 12)
		eng := fx.engage(t, "mallory", 3)
		corrupt(t, eng)

		ring := obs.NewRingSink(64)
		s := fx.run(t, shards, sched.WithTracer(obs.NewTracer(ring)))

		var types []string
		for _, e := range ring.Events() {
			if e.Engagement == string(eng.ID()) {
				types = append(types, e.Type+":"+e.Detail)
			}
		}
		want := []string{"challenge:", "proof:", "settled:failed", "slashed:failed round"}
		if len(types) != len(want) {
			t.Fatalf("got events %v, want %v", types, want)
		}
		for i := range want {
			if types[i] != want[i] {
				t.Fatalf("event %d = %q, want %q (full stream %v)", i, types[i], want[i], types)
			}
		}
		if stats := s.Stats(); stats.SettledRounds != 1 || stats.Slashes != 1 {
			t.Fatalf("Stats %+v, want one settled round and one slash", stats)
		}
	})
}
