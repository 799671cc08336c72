package dsnaudit_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/dsnaudit/sched"
	"repro/internal/contract"
)

// schedOutcome is the schedule-invariant slice of one engagement's fate:
// everything that must be identical at any parallelism. Gas and challenge
// bytes are excluded only because each run draws fresh keys and proofs —
// within a run they are functions of the same deterministic schedule.
type schedOutcome struct {
	Rounds, Passed, Failed int
	State                  contract.State
	Errored                bool
	Records                []recordOutcome
}

type recordOutcome struct {
	Round     int
	Passed    bool
	ProofSize int
}

func outcomesOf(t *testing.T, fx *fixture, s *sched.Scheduler) []schedOutcome {
	t.Helper()
	outs := make([]schedOutcome, len(fx.engs))
	for i, e := range fx.engs {
		res, ok := s.Result(e.ID())
		if !ok {
			t.Fatalf("engagement %d missing from results", i)
		}
		out := schedOutcome{
			Rounds:  res.Rounds,
			Passed:  res.Passed,
			Failed:  res.Failed,
			State:   e.Contract.State(),
			Errored: res.Err != nil,
		}
		for _, rec := range e.Contract.Records() {
			out.Records = append(out.Records, recordOutcome{
				Round: rec.Round, Passed: rec.Passed, ProofSize: rec.ProofSize,
			})
		}
		outs[i] = out
	}
	return outs
}

// TestSchedulerDeterministicAcrossParallelism pins the pipeline's
// determinism guarantee end to end: a full scheduler run over six
// engagements with one injected cheater (every chunk of its replica
// corrupted, so each of its proofs fails verification and forces the
// bisection slashing path) produces identical per-engagement outcomes —
// rounds, verdicts, terminal states, slashing — and an identical block
// schedule at parallelism 1, 4 and GOMAXPROCS, at one shard and at four.
func TestSchedulerDeterministicAcrossParallelism(t *testing.T) {
	const n, rounds, cheater = 6, 2, 2

	run := func(t *testing.T, opts ...sched.Option) ([]schedOutcome, uint64) {
		fx := newBlockFixture(t, n, rounds, map[int]bool{cheater: true})
		s := fx.run(t, opts...)
		return outcomesOf(t, fx, s), fx.net.Chain.Height()
	}

	want, wantHeight := run(t, sched.WithParallelism(1))
	for i, out := range want {
		if i == cheater {
			if out.State != contract.StateAborted || out.Failed != 1 || out.Passed != 0 {
				t.Fatalf("serial cheater outcome wrong: %+v", out)
			}
			continue
		}
		if out.State != contract.StateExpired || out.Passed != rounds || out.Failed != 0 {
			t.Fatalf("serial honest outcome %d wrong: %+v", i, out)
		}
	}

	forShards(t, func(t *testing.T, shards sched.Option) {
		for _, parallelism := range []int{4, runtime.GOMAXPROCS(0)} {
			got, height := run(t, shards, sched.WithParallelism(parallelism))
			if height != wantHeight {
				t.Errorf("parallelism=%d: final height %d, want %d (block schedule diverged)",
					parallelism, height, wantHeight)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("parallelism=%d: engagement %d outcome %+v, want %+v",
						parallelism, i, got[i], want[i])
				}
			}
		}
	})
}

// TestSequentialDriverMatchesScheduler checks the sequential
// Engagement.RunAll driver (RunRound per round, inline settlement) reaches
// the same verdicts as the pipelined scheduler on the same workload with
// the same injected cheater.
func TestSequentialDriverMatchesScheduler(t *testing.T) {
	const n, rounds, cheater = 4, 2, 1
	wantPassed := func(i int) int {
		if i == cheater {
			return 0
		}
		return rounds
	}

	seq := newBlockFixture(t, n, rounds, map[int]bool{cheater: true})
	for i, e := range seq.engs {
		passed, err := e.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if passed != wantPassed(i) {
			t.Fatalf("sequential engagement %d passed %d rounds, want %d", i, passed, wantPassed(i))
		}
	}

	forShards(t, func(t *testing.T, shards sched.Option) {
		fx := newBlockFixture(t, n, rounds, map[int]bool{cheater: true})
		s := fx.run(t, shards)
		for i, e := range fx.engs {
			res, ok := s.Result(e.ID())
			if !ok {
				t.Fatalf("engagement %d missing from results", i)
			}
			seqState, schedState := seq.engs[i].Contract.State(), e.Contract.State()
			if seqState != schedState {
				t.Errorf("engagement %d: sequential state %v, scheduler state %v", i, seqState, schedState)
			}
			if res.Passed != wantPassed(i) {
				t.Errorf("engagement %d: scheduler passed %d, want %d", i, res.Passed, wantPassed(i))
			}
		}
	})
}
