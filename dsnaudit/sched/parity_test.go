package sched

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"repro/dsnaudit"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/obs"
)

func eth(n int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
}

func smallTerms(rounds int) dsnaudit.EngagementTerms {
	terms := dsnaudit.DefaultTerms(rounds)
	terms.ChallengeSize = 4
	return terms
}

// goldenParity is the outcome of the seeded "parity-seed" crash fixture
// (three rounds) as the linear-scan scheduler this engine replaced produced
// it at the commit that deleted it: per-engagement round accounting and
// terminal state, final chain height, total gas, every party's balance and
// every provider's reputation. It pins that replacing that scheduler changed
// no behavior; the live oracles against the reference driver are
// dsnaudit's TestSchedulerMatchesSequential and
// TestSequentialDriverMatchesScheduler.
//
// Its gas is derived, not re-recorded, from the 22 557 000 the fixture read
// while every contract posted and stored its whole key. Since contracts
// reference a key body registered once per chain, the fixture's 13 contracts
// (alice 10, bob, carol and dave one each; s = 4 keys of 612 B, 20 words,
// whose 580-byte body is 19 words) store 4×(19+2) + 9×2 = 102 words instead
// of 13×20 = 260: −158 × 20 000 gas. Calldata drops alice's 9 later keys
// (9×612 B, of which 9×34 are zero bytes at 4 gas: the three of s and the 31
// of Powers[0] = g1; the rest at 16) and adds 9 references of 64 B and 4
// digests of 32 B at 16: −84 456 + 11 264. In all 22 557 000 − 3 160 000 −
// 73 192 = 19 323 808.
var goldenParity = &matrixSnapshot{
	height: 10,
	gas:    19_323_808, // compared within the proof-entropy tolerance
	results: map[string]string{
		"alice/sp-a": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"alice/sp-b": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"alice/sp-c": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"alice/sp-e": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"alice/sp-f": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"alice/sp-g": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"alice/sp-h": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"alice/sp-i": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"alice/sp-k": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"alice/sp-l": "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"bob/sp-c":   "rounds=3 passed=3 failed=0 state=EXPIRED err=false",
		"carol/sp-c": "rounds=1 passed=0 failed=1 state=ABORTED err=false",
		"dave/sp-l":  "rounds=1 passed=0 failed=1 state=ABORTED err=false",
	},
	balances: map[string]string{
		"alice": "999999999999970000",
		"bob":   "999999999999997000",
		"carol": "1000000000000050000",
		"dave":  "1000000000000050000",
		"sp-a":  "1000000000000003000",
		"sp-b":  "1000000000000003000",
		"sp-c":  "999999999999956000",
		"sp-e":  "1000000000000003000",
		"sp-f":  "1000000000000003000",
		"sp-g":  "1000000000000003000",
		"sp-h":  "1000000000000003000",
		"sp-i":  "1000000000000003000",
		"sp-k":  "1000000000000003000",
		"sp-l":  "999999999999953000",
	},
	trust: map[string]string{
		"sp-a": "0.216329966",
		"sp-b": "0.216329966",
		"sp-c": "0.000000000",
		"sp-e": "0.216329966",
		"sp-f": "0.216329966",
		"sp-g": "0.216329966",
		"sp-h": "0.216329966",
		"sp-i": "0.216329966",
		"sp-k": "0.216329966",
		"sp-l": "0.000000000",
	},
}

// TestShardedSchedulerMatchesLinearScan checks the scheduler at parallelism
// 1, 2 and 4 against goldenParity — honest rounds, a cheater's slashing, and
// a dead responder's missed deadline included. Each case also passes the
// WithShards value its subtest names; the option is ignored, so no value may
// move a byte. Run under -race this is also the scheduler's synchronization
// test.
func TestShardedSchedulerMatchesLinearScan(t *testing.T) {
	for _, tc := range []struct {
		shards, par int
	}{
		{1, 1}, {1, 4}, {4, 2}, {16, 4},
	} {
		tc := tc
		t.Run(fmt.Sprintf("shards=%d/par=%d", tc.shards, tc.par), func(t *testing.T) {
			fx, err := buildCrashFixture("parity-seed", 3)
			if err != nil {
				t.Fatal(err)
			}
			sched := NewScheduler(fx.net, WithShards(tc.shards), WithParallelism(tc.par))
			for _, e := range fx.engs {
				if err := sched.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := sched.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			got, err := takeMatrixSnapshot(fx, sched.Result)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.results) != len(goldenParity.results) || len(got.balances) != len(goldenParity.balances) {
				t.Errorf("fixture shape changed: %d results, %d balances", len(got.results), len(got.balances))
			}
			for _, d := range diffMatrixSnapshots(goldenParity, got) {
				t.Error(d)
			}

			st := sched.Stats()
			if st.Challenges == 0 || st.Ticks == 0 {
				t.Fatalf("stats did not accumulate: %+v", st)
			}
			if st.Queued != 0 {
				t.Fatalf("%d entries still queued after completion", st.Queued)
			}
		})
	}
}

// TestWakeQueueDepthGauge pins the depth gauge to the one wake queue: a run
// of the parity fixture registers one unlabelled series, which counts armed
// entries while the run has them and reads 0 once the queue drains.
func TestWakeQueueDepthGauge(t *testing.T) {
	fx, err := buildCrashFixture("parity-seed", 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := NewScheduler(fx.net, WithParallelism(2), WithMetrics(reg))
	depth := func() float64 {
		t.Helper()
		var found []obs.Sample
		for _, sm := range reg.Snapshot() {
			if sm.Name == "dsn_sched_wake_queue_depth" {
				found = append(found, sm)
			}
		}
		if len(found) != 1 || len(found[0].Labels) != 0 {
			t.Fatalf("want one unlabelled dsn_sched_wake_queue_depth series, got %+v", found)
		}
		return found[0].Value
	}
	var peak float64
	s.OnBlock(func(uint64) { peak = max(peak, depth()) })
	for _, e := range fx.engs {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if peak == 0 {
		t.Error("the depth gauge read 0 at every block")
	}
	if q := s.Stats().Queued; q != 0 {
		t.Fatalf("%d entries still queued after completion", q)
	}
	if d := depth(); d != 0 {
		t.Errorf("depth gauge reads %v after the queue drained", d)
	}
}

// TestOutcomeHookReAdd pins the re-entry contract the repair subsystem
// depends on: an outcome hook that Adds a follow-up engagement keeps the
// Run loop driving instead of stranding it.
func TestOutcomeHookReAdd(t *testing.T) {
	b, err := beacon.NewTrusted([]byte("readd"))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := net.AddProvider("sp-"+string(rune('a'+i)), eth(1)); err != nil {
			t.Fatal(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "owner", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 500)
	for i := range data {
		data[i] = byte(i * 5)
	}
	sf, err := owner.Outsource("readd-file", data, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := owner.Engage(sf, sf.Holders[0], smallTerms(1))
	if err != nil {
		t.Fatal(err)
	}

	sched := NewScheduler(net, WithParallelism(2))
	var followID chain.Address
	sched.OnOutcome(func(o dsnaudit.Outcome) {
		if o.ID != eng.ID() {
			return
		}
		follow, err := owner.Engage(sf, sf.Holders[1], smallTerms(1))
		if err != nil {
			t.Errorf("follow-up engage: %v", err)
			return
		}
		followID = follow.ID()
		if err := sched.Add(follow); err != nil {
			t.Errorf("follow-up add: %v", err)
		}
	})
	if err := sched.Add(eng); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, ok := sched.Result(followID)
	if !ok {
		t.Fatal("follow-up engagement was never driven")
	}
	if res.State != contract.StateExpired || res.Passed != 1 {
		t.Fatalf("follow-up result %+v, want one passed round and EXPIRED", res)
	}
}
