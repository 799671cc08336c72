package contract

import (
	"crypto/rand"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
)

// logGenesis is the chain every logged history below starts from.
func logGenesis() *chain.Chain {
	c := chain.New(chain.DefaultConfig())
	c.Fund("owner", big.NewInt(1_000_000))
	c.Fund("provider", big.NewInt(1_000_000))
	return c
}

// writeChainLog runs contracts on a logged chain through every kind of op —
// a passed round settled by SettleBatchAt, a missed deadline, a second
// contract under the same key that the provider rejects — and returns the
// log's path and the live chain.
func writeChainLog(t testing.TB) (string, *chain.Chain) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chain.log")
	c := logGenesis()
	lg, err := chain.CreateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	c.AttachLog(lg)
	f := newFixture(t, 3, nil)
	f.chain = c
	f.contract, err = Deploy(c, "audit-a", f.contract.Terms, fixedBeacon{}, f.contract.verifyGas)
	if err != nil {
		t.Fatal(err)
	}
	f.initToAudit(t)
	if !f.runRound(t) {
		t.Fatal("an honest round failed")
	}
	f.advance()
	if _, err := f.contract.IssueChallenge(); err != nil {
		t.Fatal(err)
	}
	f.advance()
	if err := f.contract.MissDeadline(); err != nil {
		t.Fatal(err)
	}
	rejected, err := Deploy(c, "audit-b", f.contract.Terms, fixedBeacon{}, f.contract.verifyGas)
	if err != nil {
		t.Fatal(err)
	}
	if err := rejected.Negotiate(); err != nil {
		t.Fatal(err)
	}
	if err := rejected.Acknowledge("provider", false); err != nil {
		t.Fatal(err)
	}
	c.MineBlock()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	return path, c
}

// openCopy writes data to a fresh file and opens it as a chain log.
func openCopy(t *testing.T, data []byte) ([]chain.LogRecord, int64, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chain.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lg, recs, err := chain.OpenLog(path)
	if err != nil {
		return nil, 0, err
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, st.Size(), nil
}

// TestChainLogReplayMatchesLive: the log replayed onto genesis is the live
// chain — height, totals, balances, escrow — and each contract in its state.
func TestChainLogReplayMatchesLive(t *testing.T) {
	path, live := writeChainLog(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := openCopy(t, data)
	if err != nil {
		t.Fatal(err)
	}
	c := logGenesis()
	ks, err := Replay(c, recs, fixedBeacon{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[0].State() != StateAborted || ks[0].Round() != 2 || ks[1].State() != StateAborted {
		t.Fatalf("replayed %d contracts: %v", len(ks), ks)
	}
	if recs := ks[0].Records(); !recs[0].Passed || recs[0].SettleGas == 0 || recs[1].Passed || recs[1].GasUsed != 0 {
		t.Fatalf("replayed records %+v", recs)
	}
	if c.Height() != live.Height() || c.TotalGas() != live.TotalGas() || c.TotalBytes() != live.TotalBytes() {
		t.Fatalf("replayed chain at %d / %d gas / %d B, live at %d / %d / %d",
			c.Height(), c.TotalGas(), c.TotalBytes(), live.Height(), live.TotalGas(), live.TotalBytes())
	}
	for _, a := range []chain.Address{"owner", "provider"} {
		if c.Balance(a).Cmp(live.Balance(a)) != 0 || c.LockedBalance(a).Cmp(live.LockedBalance(a)) != 0 {
			t.Fatalf("%s: replayed %v/%v, live %v/%v", a, c.Balance(a), c.LockedBalance(a), live.Balance(a), live.LockedBalance(a))
		}
	}
}

// TestChainLogCutAtEveryOffset: a real log cut at any byte reopens to a
// prefix of its whole records — the torn tail truncated on disk — and that
// prefix replays onto genesis.
func TestChainLogCutAtEveryOffset(t *testing.T) {
	path, _ := writeChainLog(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := openCopy(t, data)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the byte offset where record i ends.
	ends := make([]int64, len(full))
	var off int64
	for i, r := range full {
		off += 7 + 4 + int64(len(r.Data))
		if r.Kind == chain.LogSeal {
			off += 24
		}
		ends[i] = off
	}
	if off != int64(len(data)) {
		t.Fatalf("records span %d bytes of %d", off, len(data))
	}
	for cut := 0; cut <= len(data); cut++ {
		recs, size, err := openCopy(t, data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(recs) > 0 && !reflect.DeepEqual(recs, full[:len(recs)]) {
			t.Fatalf("cut at %d: records are not a prefix of the log's", cut)
		}
		want := int64(0)
		if len(recs) > 0 {
			want = ends[len(recs)-1]
		}
		if size != want || (len(recs) < len(full) && ends[len(recs)] <= int64(cut)) {
			t.Fatalf("cut at %d: %d records kept in %d bytes, want every whole one (%d bytes)", cut, len(recs), size, want)
		}
		if _, err := Replay(logGenesis(), recs, fixedBeacon{}); err != nil {
			t.Fatalf("cut at %d: prefix of %d records does not replay: %v", cut, len(recs), err)
		}
	}
}

// TestChainLogRefusesDivergentHistory: a log whose replay departs from what
// it recorded — a seal mark whose block re-seals with other gas, an op on a
// contract it never deployed — is corrupt, not replayed around.
func TestChainLogRefusesDivergentHistory(t *testing.T) {
	path, _ := writeChainLog(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := openCopy(t, data)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Kind == chain.LogSeal {
			bad := append([]chain.LogRecord(nil), recs...)
			bad[i].Gas++
			if _, err := Replay(logGenesis(), bad, fixedBeacon{}); !errors.Is(err, chain.ErrLogCorrupt) {
				t.Fatalf("seal %d with other gas: err %v, want ErrLogCorrupt", i, err)
			}
			break
		}
	}
	var noDeploy []chain.LogRecord
	for _, r := range recs {
		if r.Kind != chain.LogOp || r.Data[0] != opDeploy {
			noDeploy = append(noDeploy, r)
		}
	}
	if _, err := Replay(logGenesis(), noDeploy, fixedBeacon{}); !errors.Is(err, chain.ErrLogCorrupt) {
		t.Fatalf("ops without their deploy: err %v, want ErrLogCorrupt", err)
	}
}

// TestUnloggedTransitionAllocs: with no log attached a contract encodes no
// op, so each call allocates what it did before the chain kept a log.
func TestUnloggedTransitionAllocs(t *testing.T) {
	const runs = 50
	sk, err := core.KeyGen(2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c := chain.New(chain.DefaultConfig())
	c.Fund("owner", big.NewInt(1e12))
	c.Fund("provider", big.NewInt(1e12))
	terms := Agreement{
		Owner: "owner", Provider: "provider", Rounds: 2, ChallengeSize: 3,
		RoundInterval: 2, ProofDeadline: 2,
		PaymentPerRound: big.NewInt(100), OwnerDeposit: big.NewInt(200), ProviderDeposit: big.NewInt(5000),
		NumChunks: 8, PublicKey: sk.Pub, PublicKeyPrivacy: true,
	}
	// AllocsPerRun calls its function once more than runs, to warm up.
	ks := make([]*Contract, runs+1)
	next := 0
	each := func(call func(k *Contract) error) func() {
		return func() {
			if err := call(ks[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	mine := func(n int) {
		for i := 0; i < n; i++ {
			c.MineBlock()
		}
	}
	proof := make([]byte, core.PrivateProofSize)
	// Each call's count before the chain kept a log.
	want := map[string]float64{
		"Deploy": 4, "Negotiate": 3, "Acknowledge": 2, "Freeze": 4,
		"IssueChallenge": 7, "SubmitProof": 4, "SettleTrustedAt": 4, "MissDeadline": 2,
	}
	for _, step := range []struct {
		name string
		call func(k *Contract) error
		mine int // blocks mined before the step
	}{
		{"Deploy", nil, 0},
		{"Negotiate", (*Contract).Negotiate, 0},
		{"Acknowledge", func(k *Contract) error { return k.Acknowledge("provider", true) }, 0},
		{"Freeze", (*Contract).Freeze, 0},
		{"IssueChallenge", func(k *Contract) error { _, err := k.IssueChallenge(); return err }, 2},
		{"SubmitProof", func(k *Contract) error { return k.SubmitProof("provider", proof) }, 0},
		{"SettleTrustedAt", func(k *Contract) error { _, err := k.SettleTrustedAt(true, 0, c.Height()); return err }, 1},
		{"MissDeadline", (*Contract).MissDeadline, -1},
	} {
		mine(step.mine)
		if step.mine < 0 {
			// The second round's challenge goes unanswered to its deadline.
			mine(2)
			next = 0
			for range ks {
				each(func(k *Contract) error { _, err := k.IssueChallenge(); return err })()
			}
			mine(2)
		}
		next = 0
		var got float64
		if step.call == nil {
			got = testing.AllocsPerRun(runs, func() {
				k, err := Deploy(c, chain.Address("audit-"+string(rune('A'+next))), terms, fixedBeacon{}, 1000)
				if err != nil {
					t.Fatal(err)
				}
				ks[next] = k
				next++
			})
		} else {
			got = testing.AllocsPerRun(runs, each(step.call))
		}
		if got != want[step.name] {
			t.Errorf("%s allocates %v times, want %v", step.name, got, want[step.name])
		}
	}
}

// FuzzReplayOp replays a real log with one arbitrary op in the middle: the
// op's bytes come off disk, so whatever they hold, Replay either runs them
// or refuses the log as corrupt. It never panics.
func FuzzReplayOp(f *testing.F) {
	path, _ := writeChainLog(f)
	lg, recs, err := chain.OpenLog(path)
	if err != nil {
		f.Fatal(err)
	}
	lg.Close()
	for _, r := range recs {
		if r.Kind == chain.LogOp {
			f.Add(r.Data, uint8(len(recs)/2))
		}
	}
	f.Fuzz(func(t *testing.T, op []byte, at uint8) {
		i := int(at) % (len(recs) + 1)
		mixed := append(append(append([]chain.LogRecord(nil), recs[:i]...), chain.LogRecord{Kind: chain.LogOp, Data: op}), recs[i:]...)
		if _, err := Replay(logGenesis(), mixed, fixedBeacon{}); err != nil && !errors.Is(err, chain.ErrLogCorrupt) {
			t.Fatalf("replay error %v is not ErrLogCorrupt", err)
		}
	})
}
