package sched

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/dsntest"
)

// chainLogGenesis builds the seeded world the round trip starts from: its
// providers and owners funded, nothing on chain yet.
func chainLogGenesis(t *testing.T) (*dsntest.World, []*dsnaudit.Owner) {
	t.Helper()
	w, err := dsntest.NewWorld("chainlog", dsntest.Eth(1), dsntest.Names("sp-%c", 'a', 8)...)
	if err != nil {
		t.Fatal(err)
	}
	var owners []*dsnaudit.Owner
	for _, name := range []string{"alice", "carol", "dave"} {
		o, err := w.Owner(name, 4, dsntest.Eth(1))
		if err != nil {
			t.Fatal(err)
		}
		owners = append(owners, o)
	}
	return w, owners
}

// TestChainLogRoundTrip runs a seeded world under the journaled scheduler
// with the chain log attached — honest rounds, a cheater slashed by a failed
// verdict, a dead provider slashed at its deadline — then replays the log
// into a fresh genesis of the same seed. Every account's balance and escrow,
// the height and totals, and each contract's state, round, records and
// trigger must come out as the live run left them.
func TestChainLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "chain.log")
	w, owners := chainLogGenesis(t)
	clog, err := chain.CreateLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer clog.Close()
	w.Net.Chain.AttachLog(clog)

	ctx := context.Background()
	terms := dsntest.SmallTerms(3)
	var engs []*dsnaudit.Engagement
	for i, o := range owners {
		sf, err := o.Outsource(o.Name+"-file", dsntest.Pattern(600, 11), 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, holder := range sf.Holders[:2] {
			eng, err := o.EngageWith(ctx, sf, holder, holder, terms)
			if err != nil {
				t.Fatal(err)
			}
			engs = append(engs, eng)
		}
		switch i {
		case 1:
			if err := dsntest.Corrupt(engs[len(engs)-1]); err != nil {
				t.Fatal(err)
			}
		case 2:
			engs[len(engs)-1].Responder = deadResponder{}
		}
	}
	jnl, err := OpenJournal(filepath.Join(dir, "journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(w.Net, WithJournal(jnl))
	for _, eng := range engs {
		if err := s.Add(eng); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}

	fresh, _ := chainLogGenesis(t)
	reopened, recs, err := chain.OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	replayed, err := contract.Replay(fresh.Net.Chain, recs, fresh.Net.Beacon)
	if err != nil {
		t.Fatal(err)
	}

	live, got := w.Net.Chain, fresh.Net.Chain
	if got.Height() != live.Height() || got.TotalBytes() != live.TotalBytes() || got.TotalGas() != live.TotalGas() {
		t.Errorf("replayed chain: height %d, %d B, %d gas; live: %d, %d B, %d gas",
			got.Height(), got.TotalBytes(), got.TotalGas(), live.Height(), live.TotalBytes(), live.TotalGas())
	}
	accounts := map[chain.Address]bool{}
	for _, o := range owners {
		accounts[o.Address()] = true
	}
	for _, name := range dsntest.Names("sp-%c", 'a', 8) {
		accounts[chain.Address(name)] = true
	}
	for a := range accounts {
		if got.Balance(a).Cmp(live.Balance(a)) != 0 || got.LockedBalance(a).Cmp(live.LockedBalance(a)) != 0 {
			t.Errorf("%s: replayed balance %v locked %v, live %v locked %v",
				a, got.Balance(a), got.LockedBalance(a), live.Balance(a), live.LockedBalance(a))
		}
	}
	if len(replayed) != len(engs) {
		t.Fatalf("replayed %d contracts, the run deployed %d", len(replayed), len(engs))
	}
	outcomes := map[contract.State]int{}
	for i, k := range replayed {
		want := engs[i].Contract
		outcomes[want.State()]++
		if k.Addr != want.Addr || k.State() != want.State() || k.Round() != want.Round() ||
			k.TriggerHeight() != want.TriggerHeight() || !reflect.DeepEqual(k.Records(), want.Records()) {
			t.Errorf("contract %s: replayed %v round %d trigger %d records %+v; live %v round %d trigger %d records %+v",
				want.Addr, k.State(), k.Round(), k.TriggerHeight(), k.Records(),
				want.State(), want.Round(), want.TriggerHeight(), want.Records())
		}
	}
	if outcomes[contract.StateExpired] != 4 || outcomes[contract.StateAborted] != 2 {
		t.Fatalf("the run ended %v, want 4 expired and 2 aborted", outcomes)
	}
}
