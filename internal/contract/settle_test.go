package contract

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
)

// submitRound walks one fixture to a pending proof: challenge issued,
// proof generated (over possibly-corrupted data) and submitted, block
// mined. The contract is left in SETTLE.
func submitRound(t *testing.T, f *fixture, corrupt bool) {
	t.Helper()
	f.initToAudit(t)
	f.advance()
	ch, err := f.contract.IssueChallenge()
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		for i := 0; i < f.ef.NumChunks(); i++ {
			f.ef.Corrupt(i, 0)
		}
	}
	proof, err := f.prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := proof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.contract.SubmitProof("provider", enc); err != nil {
		t.Fatal(err)
	}
	f.chain.MineBlock()
}

// TestSettleBatchIsolatesCheater settles a block carrying 1 corrupt + 15
// honest proofs: exactly one contract fails (and is slashed), all others
// pass, and the whole block costs strictly fewer final exponentiations than
// per-proof verification would.
func TestSettleBatchIsolatesCheater(t *testing.T) {
	const n = 16
	const bad = 11
	fixtures := make([]*fixture, n)
	cs := make([]*Contract, n)
	for i := range fixtures {
		fixtures[i] = newFixture(t, 1, nil)
		submitRound(t, fixtures[i], i == bad)
		cs[i] = fixtures[i].contract
	}

	var stats core.BatchStats
	results := SettleBatchAt(cs, cs[0].Chain.Height(), 0, &stats)
	if len(results) != n {
		t.Fatalf("%d results for %d contracts", len(results), n)
	}
	failed := 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("contract %d settlement error: %v", i, res.Err)
		}
		if res.Addr != cs[i].Addr {
			t.Fatalf("result %d for %s, want %s", i, res.Addr, cs[i].Addr)
		}
		if want := i != bad; res.Passed != want {
			t.Errorf("contract %d passed=%v, want %v", i, res.Passed, want)
		}
		if !res.Passed {
			failed++
		}
		wantState := StateExpired
		if i == bad {
			wantState = StateAborted
		}
		if cs[i].State() != wantState {
			t.Errorf("contract %d state %v, want %v", i, cs[i].State(), wantState)
		}
	}
	if failed != 1 {
		t.Fatalf("%d contracts failed, want exactly 1", failed)
	}
	// One cheater among 16: the full-batch check plus its index-weighted
	// copy, which names the cheater — against the 16 final exponentiations
	// per-proof settlement would need.
	if stats.FinalExps != 2 {
		t.Fatalf("batched settlement used %d final exps, want 2", stats.FinalExps)
	}

	// The slash landed: the cheater's collateral moved to its owner.
	badChain := fixtures[bad].chain
	if badChain.LockedBalance("provider").Sign() != 0 {
		t.Fatal("cheater's collateral still escrowed")
	}

	// Gas model: honest contracts pay the amortized share, the cheater pays
	// the full verification it forced.
	honestGas := cs[0].Records()[0].SettleGas
	badGas := cs[bad].Records()[0].SettleGas
	if honestGas >= badGas {
		t.Fatalf("honest settle gas %d not below cheater's %d", honestGas, badGas)
	}
}

// TestSettleBatchMixedStates covers the per-contract error paths: a
// contract not in SETTLE reports ErrWrongState without disturbing the rest,
// and a malformed pending proof is slashed without pairing work.
func TestSettleBatchMixedStates(t *testing.T) {
	honest := newFixture(t, 1, nil)
	submitRound(t, honest, false)

	idle := newFixture(t, 1, nil)
	idle.initToAudit(t) // AUDIT, nothing pending

	garbage := newFixture(t, 1, nil)
	garbage.initToAudit(t)
	garbage.advance()
	if _, err := garbage.contract.IssueChallenge(); err != nil {
		t.Fatal(err)
	}
	if err := garbage.contract.SubmitProof("provider", make([]byte, core.PrivateProofSize)); err != nil {
		t.Fatal(err)
	}

	var stats core.BatchStats
	results := SettleBatchAt([]*Contract{honest.contract, idle.contract, garbage.contract}, honest.chain.Height(), 0, &stats)

	if results[0].Err != nil || !results[0].Passed {
		t.Fatalf("honest contract: %+v", results[0])
	}
	if honest.contract.State() != StateExpired {
		t.Fatalf("honest state %v", honest.contract.State())
	}

	if !errors.Is(results[1].Err, errWrongState) {
		t.Fatalf("idle contract err = %v, want ErrWrongState", results[1].Err)
	}
	if idle.contract.State() != StateAudit {
		t.Fatalf("idle contract disturbed: %v", idle.contract.State())
	}

	if results[2].Err != nil || results[2].Passed {
		t.Fatalf("garbage contract: %+v", results[2])
	}
	if garbage.contract.State() != StateAborted {
		t.Fatalf("garbage state %v", garbage.contract.State())
	}
	// Only the honest proof reached the pairing stage: two per-item Miller
	// loops plus the shared sigma-term loop, one final exponentiation.
	if stats.FinalExps != 1 || stats.MillerLoops != 3 {
		t.Fatalf("stats %+v, want 1 final exp / 3 Miller loops", stats)
	}
}

// TestSettleBatchEmpty settles an empty block as a no-op.
func TestSettleBatchEmpty(t *testing.T) {
	var stats core.BatchStats
	if got := SettleBatchAt(nil, 0, 0, &stats); len(got) != 0 {
		t.Fatalf("%d results for empty batch", len(got))
	}
	if stats.FinalExps != 0 {
		t.Fatal("empty batch burned a final exponentiation")
	}
}

// sameBlock deploys n one-round contracts on each of the given chains, which
// start empty, and walks them to pending proofs sealed in one block per
// chain: contract i has the same terms, challenge and proof bytes on every
// chain, and its proof is made over corrupted data when i == bad. It returns
// each chain's contracts in deploy order.
func sameBlock(t *testing.T, n, bad int, chains ...*chain.Chain) [][]*Contract {
	t.Helper()
	for _, c := range chains {
		c.Fund("owner", big.NewInt(1_000_000))
		c.Fund("provider", big.NewInt(1_000_000))
	}
	fs := make([]*fixture, n)
	cs := make([][]*Contract, len(chains))
	for i := range fs {
		fs[i] = newFixture(t, 1, nil)
		if i == bad {
			for j := 0; j < fs[i].ef.NumChunks(); j++ {
				fs[i].ef.Corrupt(j, 0)
			}
		}
		for j, c := range chains {
			k, err := Deploy(c, chain.Address(fmt.Sprintf("audit-%02d", i)), fs[i].contract.Terms, fixedBeacon{}, fs[i].contract.verifyGas)
			if err != nil {
				t.Fatal(err)
			}
			f := *fs[i]
			f.chain, f.contract = c, k
			f.initToAudit(t)
			cs[j] = append(cs[j], k)
		}
	}
	for j, c := range chains {
		for c.Height() < cs[j][0].TriggerHeight() {
			c.MineBlock()
		}
	}
	for i, f := range fs {
		var enc []byte
		for j := range chains {
			ch, err := cs[j][i].IssueChallenge()
			if err != nil {
				t.Fatal(err)
			}
			if enc == nil {
				proof, err := f.prover.ProvePrivate(ch, nil, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				if enc, err = proof.Marshal(); err != nil {
					t.Fatal(err)
				}
			}
			if err := cs[j][i].SubmitProof("provider", enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range chains {
		c.MineBlock()
	}
	return cs
}

// attachLog gives c a fresh chain log and returns its path.
func attachLog(t *testing.T, c *chain.Chain) (string, *chain.Log) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chain.log")
	lg, err := chain.CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	c.AttachLog(lg)
	return path, lg
}

// replayMatches closes lg, replays the log at path onto genesis and checks
// the replayed chain against live. It returns the log's ops with the given
// code.
func replayMatches(t *testing.T, path string, lg *chain.Log, genesis, live *chain.Chain, code byte) [][]byte {
	t.Helper()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := openCopy(t, data)
	if err != nil {
		t.Fatal(err)
	}
	genesis.Fund("owner", big.NewInt(1_000_000))
	genesis.Fund("provider", big.NewInt(1_000_000))
	if _, err := Replay(genesis, recs, fixedBeacon{}); err != nil {
		t.Fatal(err)
	}
	if genesis.Height() != live.Height() || genesis.TotalGas() != live.TotalGas() || genesis.TotalBytes() != live.TotalBytes() {
		t.Fatalf("replayed chain at %d / %d gas / %d B, live at %d / %d / %d",
			genesis.Height(), genesis.TotalGas(), genesis.TotalBytes(), live.Height(), live.TotalGas(), live.TotalBytes())
	}
	var ops [][]byte
	for _, r := range recs {
		if r.Kind == chain.LogOp && r.Data[0] == code {
			ops = append(ops, r.Data)
		}
	}
	return ops
}

// settleTxs mines c until nothing is pending and returns the settlement
// transactions it sealed with their gas.
func settleTxs(c *chain.Chain) (txs []*chain.Tx, gas []uint64) {
	for c.PendingCount() > 0 {
		for _, tx := range c.MineBlock().Txs {
			if tx.To == batchVerifier {
				txs = append(txs, tx)
				gas = append(gas, c.Config().Gas.TxBase+tx.ExtraGas)
			}
		}
	}
	return txs, gas
}

// TestChainLogSettlesBlockInOneTransaction settles a block of four proofs,
// one of them a cheater's, on a logged chain: SettleBatchAt submits one
// transaction, with no calldata, whose gas the four records sum to, and the
// log holds it as one settlement op that replays to the same chain. The same
// contracts settled one at a time on a second chain reach the same verdicts,
// records and balances, each record charged a whole transaction's base gas
// and a one-proof verification instead of its share of both.
func TestChainLogSettlesBlockInOneTransaction(t *testing.T) {
	const n, bad = 4, 2
	batched, single := chain.New(chain.DefaultConfig()), chain.New(chain.DefaultConfig())
	path, lg := attachLog(t, batched)
	cs := sameBlock(t, n, bad, batched, single)

	pending := batched.PendingCount()
	res := SettleBatchAt(cs[0], batched.Height(), 0, nil)
	if got := batched.PendingCount() - pending; got != 1 {
		t.Fatalf("settling %d proofs submitted %d transactions, want 1", n, got)
	}
	txs, gas := settleTxs(batched)
	if len(txs) != 1 || len(txs[0].Data) != 0 {
		t.Fatalf("sealed %d settlement transactions, want 1 with no calldata", len(txs))
	}
	base := batched.Config().Gas.TxBase
	var sum uint64
	for i, k := range cs[0] {
		want := k.settleGasShare(n) + base/n
		if i == bad {
			want = k.verifyGas + base/n
		}
		if i == 0 {
			want += base % n
		}
		rec := k.Records()[0]
		if rec.SettleGas != want {
			t.Errorf("contract %d: settle gas %d, want %d", i, rec.SettleGas, want)
		}
		sum += rec.SettleGas
	}
	if sum != gas[0] {
		t.Fatalf("records sum to %d gas, the settlement transaction used %d", sum, gas[0])
	}

	for i, k := range cs[1] {
		one := SettleBatchAt([]*Contract{k}, single.Height(), 0, nil)[0]
		if one.Err != nil || res[i].Err != nil || one.Passed != res[i].Passed || one.Passed != (i != bad) {
			t.Fatalf("contract %d: batched %+v, alone %+v", i, res[i], one)
		}
		b, o := cs[0][i].Records()[0], k.Records()[0]
		if o.SettleGas != k.verifyGas+base {
			t.Errorf("contract %d alone: settle gas %d, want %d", i, o.SettleGas, k.verifyGas+base)
		}
		if b.GasUsed-b.SettleGas != o.GasUsed-o.SettleGas {
			t.Errorf("contract %d: proof gas %d batched, %d alone", i, b.GasUsed-b.SettleGas, o.GasUsed-o.SettleGas)
		}
		b.GasUsed, b.SettleGas, o.GasUsed, o.SettleGas = 0, 0, 0, 0
		if !reflect.DeepEqual(b, o) || cs[0][i].State() != k.State() {
			t.Errorf("contract %d: batched record %+v in %v, alone %+v in %v", i, b, cs[0][i].State(), o, k.State())
		}
	}
	settleTxs(single)
	for _, a := range []chain.Address{"owner", "provider"} {
		if batched.Balance(a).Cmp(single.Balance(a)) != 0 || batched.LockedBalance(a).Cmp(single.LockedBalance(a)) != 0 {
			t.Errorf("%s: batched %v/%v, one at a time %v/%v", a,
				batched.Balance(a), batched.LockedBalance(a), single.Balance(a), single.LockedBalance(a))
		}
	}

	if ops := replayMatches(t, path, lg, chain.New(chain.DefaultConfig()), batched, opSettle); len(ops) != 1 {
		t.Fatalf("the log holds %d settlement ops, want 1", len(ops))
	}
}

// TestChainLogSettlementSplitsAtGasLimit settles a block of 30 proofs, one
// of them a cheater's, under DefaultConfig's 10 M block gas limit, which one
// transaction would exceed: SettleBatchAt splits it into two consecutive
// transactions, the first as large as fits, each within the limit, and
// reaches the verdicts that one transaction reaches under a raised limit.
// The log holds both and replays to the same chain.
func TestChainLogSettlementSplitsAtGasLimit(t *testing.T) {
	const n, bad = 30, 7
	raisedCfg := chain.DefaultConfig()
	raisedCfg.BlockGasLimit = 1 << 62
	split, raised := chain.New(chain.DefaultConfig()), chain.New(raisedCfg)
	path, lg := attachLog(t, split)
	cs := sameBlock(t, n, bad, split, raised)

	splitRes := SettleBatchAt(cs[0], split.Height(), 0, nil)
	raisedRes := SettleBatchAt(cs[1], raised.Height(), 0, nil)
	for i := range splitRes {
		if splitRes[i].Err != nil || splitRes[i].Passed != raisedRes[i].Passed || splitRes[i].Passed != (i != bad) {
			t.Fatalf("contract %d: split %+v, raised limit %+v", i, splitRes[i], raisedRes[i])
		}
	}
	limit := split.Config().BlockGasLimit
	txs, gas := settleTxs(split)
	if len(txs) != 2 || gas[0] > limit || gas[1] > limit || gas[0]+cs[0][0].settleGasShare(n) <= limit {
		t.Fatalf("%d settlement transactions of %v gas, want two within %d, the first as large as fits", len(txs), gas, limit)
	}
	if txs, _ := settleTxs(raised); len(txs) != 1 {
		t.Fatalf("%d settlement transactions under a raised limit, want 1", len(txs))
	}
	var sum uint64
	for _, k := range cs[0] {
		sum += k.Records()[0].SettleGas
	}
	if sum != gas[0]+gas[1] {
		t.Fatalf("records sum to %d gas, the settlement transactions used %d", sum, gas[0]+gas[1])
	}
	if ops := replayMatches(t, path, lg, chain.New(chain.DefaultConfig()), split, opSettle); len(ops) != 2 {
		t.Fatalf("the log holds %d settlement ops, want 2", len(ops))
	}
}
