package contract

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
)

// mineTo mines c up to height h.
func mineTo(c *chain.Chain, h uint64) {
	for c.Height() < h {
		c.MineBlock()
	}
}

// dueTogether deploys one contract under terms per entry of rounds on each of
// the given chains, which start empty, and walks contract i through rounds[i]
// passed rounds, settled on the caller's word with no verification gas. It
// then mines every transaction in and reaches the height at which all of
// them are in AUDIT and due, contract i at round rounds[i]: fixedBeacon draws
// a round's challenge, so contracts at different rounds draw different ones.
// It returns each chain's contracts in deploy order.
func dueTogether(t *testing.T, terms Agreement, rounds []int, chains ...*chain.Chain) [][]*Contract {
	t.Helper()
	cs := make([][]*Contract, len(chains))
	proof := make([]byte, core.PrivateProofSize)
	for j, c := range chains {
		c.Fund("owner", big.NewInt(1_000_000))
		c.Fund("provider", big.NewInt(1_000_000))
		for i := range rounds {
			k, err := Deploy(c, chain.Address(fmt.Sprintf("audit-%02d", i)), terms, fixedBeacon{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			f := fixture{chain: c, contract: k}
			f.initToAudit(t)
			cs[j] = append(cs[j], k)
		}
		due := func() {
			for _, k := range cs[j] {
				mineTo(c, k.TriggerHeight())
			}
		}
		for r := 0; r < slices.Max(rounds); r++ {
			due()
			var vs []Verdict
			for i, k := range cs[j] {
				if rounds[i] <= r {
					continue
				}
				if _, err := k.IssueChallenge(); err != nil {
					t.Fatal(err)
				}
				if err := k.SubmitProof("provider", proof); err != nil {
					t.Fatal(err)
				}
				vs = append(vs, Verdict{Contract: k, Passed: true})
			}
			c.MineBlock()
			for _, res := range SettleVerdictsAt(vs, c.Height()) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
		}
		for c.PendingCount() > 0 {
			c.MineBlock()
		}
		due()
	}
	return cs
}

// challengeTxsOf mines c until nothing is pending and returns the challenge
// transactions it sealed with their gas.
func challengeTxsOf(c *chain.Chain) (txs []*chain.Tx, gas []uint64) {
	for c.PendingCount() > 0 {
		for _, tx := range c.MineBlock().Txs {
			if tx.To == auditTrigger {
				txs = append(txs, tx)
				gas = append(gas, c.Config().Gas.TxBase+c.Config().Gas.CalldataGas(tx.Data)+tx.ExtraGas)
			}
		}
	}
	return txs, gas
}

// challengeOpOf encodes a challenge op by hand: the entry count it declares,
// then the given contracts.
func challengeOpOf(count uint64, addrs ...chain.Address) []byte {
	op := newOp(opChallenges, auditTrigger).uint(count)
	for _, a := range addrs {
		op = op.str(string(a))
	}
	return op
}

// TestChainLogIssuesChallengesInOneTransaction fires the "Chal" actions of
// five inputs on a logged chain: three due contracts at rounds 2, 0 and 1,
// one already in PROVE and the first contract again. IssueChallenges submits
// one transaction from and to the audit trigger, with no execution gas, whose
// calldata is the three challenges in input order; the other two inputs get
// ErrWrongState. The same inputs one at a time on a second chain draw the
// same challenges and leave every contract in the same state with the same
// trigger, in three transactions instead of one. The log holds the
// transaction as one op listing its contracts, and replays to the same chain.
func TestChainLogIssuesChallengesInOneTransaction(t *testing.T) {
	const proving = 2
	batched, single := chain.New(chain.DefaultConfig()), chain.New(chain.DefaultConfig())
	path, lg := attachLog(t, batched)
	ks := dueTogether(t, newFixture(t, 4, nil).contract.Terms, []int{2, 0, 0, 1}, batched, single)
	for j, c := range []*chain.Chain{batched, single} {
		if _, err := ks[j][proving].IssueChallenge(); err != nil {
			t.Fatal(err)
		}
		challengeTxsOf(c)
	}
	order := []int{0, 1, proving, 3, 0}
	in := make([]*Contract, len(order))
	for n, i := range order {
		in[n] = ks[0][i]
	}

	pending := batched.PendingCount()
	res := IssueChallenges(in)
	if got := batched.PendingCount() - pending; got != 1 {
		t.Fatalf("challenging 3 due contracts submitted %d transactions, want 1", got)
	}
	var want []byte
	for n, i := range order {
		ch, err := ks[1][i].IssueChallenge()
		if !reflect.DeepEqual(res[n].Challenge, ch) || (res[n].Err == nil) != (err == nil) {
			t.Fatalf("input %d: batched %+v, alone %v, %v", n, res[n], ch, err)
		}
		if i == proving || n == len(order)-1 {
			if !errors.Is(res[n].Err, errWrongState) || !errors.Is(err, errWrongState) {
				t.Fatalf("input %d: err %v batched, %v alone, want ErrWrongState", n, res[n].Err, err)
			}
			continue
		}
		if err != nil || ch == nil {
			t.Fatalf("input %d: %v, %v", n, ch, err)
		}
		want = append(want, ch.Marshal()...)
	}
	for i, b := range ks[0] {
		s := ks[1][i]
		if b.State() != s.State() || b.TriggerHeight() != s.TriggerHeight() || b.Round() != s.Round() ||
			!reflect.DeepEqual(b.CurrentChallenge(), s.CurrentChallenge()) {
			t.Errorf("contract %d: batched %v round %d trigger %d, alone %v round %d trigger %d",
				i, b.State(), b.Round(), b.TriggerHeight(), s.State(), s.Round(), s.TriggerHeight())
		}
	}

	g := batched.Config().Gas
	txs, gas := challengeTxsOf(batched)
	if len(txs) != 1 || txs[0].From != auditTrigger || txs[0].ExtraGas != 0 || !bytes.Equal(txs[0].Data, want) || len(want) != 3*challengeSize {
		t.Fatalf("sealed %d challenge transactions, want one from the audit trigger carrying the 3 challenges in input order", len(txs))
	}
	if gas[0] != g.TxBase+g.CalldataGas(want) {
		t.Fatalf("challenge transaction used %d gas, want %d", gas[0], g.TxBase+g.CalldataGas(want))
	}
	alone, aloneGas := challengeTxsOf(single)
	var aloneData []byte
	var aloneSum uint64
	for i, tx := range alone {
		aloneData, aloneSum = append(aloneData, tx.Data...), aloneSum+aloneGas[i]
	}
	if len(alone) != 3 || !bytes.Equal(aloneData, want) || aloneSum != gas[0]+2*g.TxBase {
		t.Fatalf("one at a time: %d transactions, %d gas, want 3 carrying the same bytes for %d", len(alone), aloneSum, gas[0]+2*g.TxBase)
	}

	ops := replayMatches(t, path, lg, chain.New(chain.DefaultConfig()), batched, opChallenges)
	if last := ops[len(ops)-1]; !bytes.Equal(last, challengeOpOf(3, "audit-00", "audit-01", "audit-03")) {
		t.Fatalf("the log's last challenge op is %x, want one listing the 3 challenged contracts", last)
	}
}

// TestIssueChallengesExpiresExhaustedContract: a contract whose rounds are
// exhausted expires when its trigger fires, as it does alone, and is left out
// of the challenge transaction that carries the others' challenges.
func TestIssueChallengesExpiresExhaustedContract(t *testing.T) {
	c := chain.New(chain.DefaultConfig())
	terms := newFixture(t, 4, nil).contract.Terms
	ks := dueTogether(t, terms, []int{0, 1, 0}, c)[0]
	// A contract whose last round settled without expiring it: no call
	// leaves one so, but the "Chal" action expires it.
	ks[1].round = terms.Rounds
	res := IssueChallenges(ks)
	if res[1].Err != nil || res[1].Challenge != nil || ks[1].State() != StateExpired {
		t.Fatalf("exhausted contract: %+v in %v, want expired", res[1], ks[1].State())
	}
	if c.LockedBalance("provider").Sign() == 0 || ks[1].providerEsc.Sign() != 0 {
		t.Fatal("the expired contract kept its escrow, or took the others'")
	}
	txs, _ := challengeTxsOf(c)
	if len(txs) != 1 || !bytes.Equal(txs[0].Data, append(res[0].Challenge.Marshal(), res[2].Challenge.Marshal()...)) {
		t.Fatalf("%d challenge transactions, want one carrying the two drawn challenges", len(txs))
	}
}

// TestChainLogRefusedChallengesStayInAudit: when the chain refuses the
// challenge transaction (its log has failed), no contract in it moves: each
// reports the error and stays in AUDIT with no open challenge.
func TestChainLogRefusedChallengesStayInAudit(t *testing.T) {
	c := chain.New(chain.DefaultConfig())
	_, lg := attachLog(t, c)
	ks := dueTogether(t, newFixture(t, 4, nil).contract.Terms, []int{0, 1, 0}, c)[0]
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	c.MineBlock() // its seal mark latches the closed log's fault
	pending := c.PendingCount()
	for i, res := range IssueChallenges(ks) {
		if res.Err == nil || res.Challenge != nil || ks[i].State() != StateAudit || ks[i].CurrentChallenge() != nil {
			t.Fatalf("contract %d: %+v in %v with challenge %v, want an error in AUDIT", i, res, ks[i].State(), ks[i].CurrentChallenge())
		}
	}
	if c.PendingCount() != pending {
		t.Fatalf("a refused challenge left %d transactions pending", c.PendingCount()-pending)
	}
}

// TestChainLogChallengesSplitAtGasLimit challenges 40 due contracts under a
// block gas limit of 40 000, which one transaction carrying all of them would
// exceed (the schedule charges no storage gas, so every set-up transaction
// fits): IssueChallenges splits them into two consecutive transactions, the
// first as large as fits, each within the limit, carrying the challenges one
// transaction carries under a raised limit, in the same order. The log holds
// both and replays to the same chain.
func TestChainLogChallengesSplitAtGasLimit(t *testing.T) {
	cfg := chain.DefaultConfig()
	cfg.Gas.StorageWord = 0
	cfg.BlockGasLimit = 40_000
	raisedCfg := cfg
	raisedCfg.BlockGasLimit = 1 << 62
	split, raised := chain.New(cfg), chain.New(raisedCfg)
	path, lg := attachLog(t, split)
	rounds := make([]int, 40)
	for i := range rounds {
		rounds[i] = i % 3
	}
	ks := dueTogether(t, newFixture(t, 4, nil).contract.Terms, rounds, split, raised)

	splitRes, raisedRes := IssueChallenges(ks[0]), IssueChallenges(ks[1])
	for i := range splitRes {
		if splitRes[i].Err != nil || splitRes[i].Challenge == nil || !reflect.DeepEqual(splitRes[i], raisedRes[i]) {
			t.Fatalf("contract %d: split %+v, raised limit %+v", i, splitRes[i], raisedRes[i])
		}
	}
	txs, gas := challengeTxsOf(split)
	if len(txs) != 2 || gas[0] > cfg.BlockGasLimit || gas[1] > cfg.BlockGasLimit ||
		gas[0]+cfg.Gas.CalldataGas(txs[1].Data[:challengeSize]) <= cfg.BlockGasLimit {
		t.Fatalf("%d challenge transactions of %v gas, want two within %d, the first as large as fits", len(txs), gas, cfg.BlockGasLimit)
	}
	one, _ := challengeTxsOf(raised)
	if len(one) != 1 || !bytes.Equal(append(slices.Clone(txs[0].Data), txs[1].Data...), one[0].Data) {
		t.Fatalf("%d challenge transactions under a raised limit, want 1 with the split ones' bytes", len(one))
	}
	ops := replayMatches(t, path, lg, chain.New(cfg), split, opChallenges)
	if n := len(ops); n < 2 || bytes.Equal(ops[n-1], ops[n-2]) {
		t.Fatalf("the log holds %d challenge ops, want the split's two last", n)
	}
}

// TestChainLogReplaysChallengeOps replays a log written while every
// challenge went in a transaction of its own, one challenge op per contract
// and round (testdata/challenge-ops.chainlog: two contracts challenged in
// the same blocks, both passing their first round, then one passing its
// second and expiring while the other misses its deadline). Each such op is a
// one-contract challenge transaction, with the gas and bytes of the one it
// was written with, so every block re-seals to its mark and the chain comes
// out as that run left it.
func TestChainLogReplaysChallengeOps(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "challenge-ops.chainlog"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := openCopy(t, data)
	if err != nil {
		t.Fatal(err)
	}
	var single, batched int
	for _, r := range recs {
		if r.Kind == chain.LogOp && r.Data[0] == opChallenge {
			single++
		}
		if r.Kind == chain.LogOp && r.Data[0] == opChallenges {
			batched++
		}
	}
	if single != 4 || batched != 0 {
		t.Fatalf("the log holds %d per-contract and %d transaction challenge ops, want 4 and 0", single, batched)
	}
	c := logGenesis()
	ks, err := Replay(c, recs, fixedBeacon{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[0].State() != StateAborted || ks[0].Round() != 2 || ks[1].State() != StateExpired || ks[1].Round() != 2 {
		t.Fatalf("replayed %d contracts: %v", len(ks), ks)
	}
	var challenges int
	for _, b := range c.Blocks() {
		for _, tx := range b.Txs {
			if tx.To == auditTrigger {
				challenges++
				if tx.From != auditTrigger || len(tx.Data) != challengeSize {
					t.Fatalf("a replayed challenge transaction from %s carries %d bytes", tx.From, len(tx.Data))
				}
			}
		}
	}
	if challenges != 4 {
		t.Fatalf("replayed %d challenge transactions, want one per logged challenge op", challenges)
	}
	// The totals and balances that run printed.
	if c.Height() != 8 || c.TotalGas() != 2_712_774 || c.TotalBytes() != 3_994 {
		t.Fatalf("replayed chain at %d / %d gas / %d B, the log's run at 8 / 2712774 / 3994", c.Height(), c.TotalGas(), c.TotalBytes())
	}
	if c.Balance("owner").Cmp(big.NewInt(1_004_700)) != 0 || c.Balance("provider").Cmp(big.NewInt(995_300)) != 0 {
		t.Fatalf("replayed balances owner %v, provider %v; the log's run left 1004700 and 995300", c.Balance("owner"), c.Balance("provider"))
	}
}

// TestChainLogChallengeOpBounds: a challenge op whose contract list is
// shorter or longer than its count, or empty, or that is not the audit
// trigger's, is malformed; one that names a contract the log never deployed
// is refused; and a count the op's bytes cannot hold is refused before
// anything is allocated for it.
func TestChainLogChallengeOpBounds(t *testing.T) {
	f := newFixture(t, 1, nil)
	a := f.contract.Addr
	byAddr := map[chain.Address]*Contract{a: f.contract}
	for _, tc := range []struct {
		name string
		op   []byte
	}{
		{"truncated", challengeOpOf(2, a)},
		{"over-long", challengeOpOf(1, a, a)},
		{"empty", challengeOpOf(0)},
		{"cut", challengeOpOf(1, a)[:10]},
		{"huge count", challengeOpOf(1<<60, a)},
		{"other address", newOp(opChallenges, a).uint(1).str(string(a))},
	} {
		if _, err := replayOp(f.chain, tc.op, nil, byAddr, fixedBeacon{}); !errors.Is(err, errBadOp) {
			t.Errorf("%s: err %v, want errBadOp", tc.name, err)
		}
	}
	if _, err := replayOp(f.chain, challengeOpOf(1, "audit-nowhere"), nil, byAddr, fixedBeacon{}); err == nil {
		t.Error("a challenge of an undeployed contract replayed")
	}
	huge := challengeOpOf(1<<40, a)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replayOp(f.chain, huge, nil, byAddr, fixedBeacon{})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(huge)) {
		t.Fatalf("a %d-byte op declaring 2^40 entries allocated %d B", len(huge), got)
	}
}
