package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
)

// TestMain doubles as the remote-provider helper process: when
// DSN_REMOTE_HELPER is set, the test binary turns into a standalone
// provider server (the acceptance criterion needs a provider in a separate
// OS process) instead of running the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("DSN_REMOTE_HELPER") == "1" {
		runHelperServer()
		return
	}
	os.Exit(m.Run())
}

// runHelperServer serves one standalone provider node on a kernel-chosen
// loopback port, reports the address on stdout, and exits when stdin
// closes (or the parent kills the process).
func runHelperServer() {
	node := dsnaudit.NewProviderNode(os.Getenv("DSN_REMOTE_NAME"))
	if seed := os.Getenv("DSN_REMOTE_ENTROPY"); seed != "" {
		node.ProofEntropy = newDetReader(seed)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("LISTEN %s\n", ln.Addr())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// The parent holds our stdin pipe open; EOF means shut down.
		_, _ = io.Copy(io.Discard, os.Stdin)
		cancel()
	}()
	_ = NewServer(node, WithServerLog(quiet)).Serve(ctx, ln)
	os.Exit(0)
}

// helperProcess spawns the test binary as a provider server in a separate
// OS process and returns the address it listens on plus a kill function.
func helperProcess(t *testing.T, name, entropySeed string) (string, func()) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"DSN_REMOTE_HELPER=1",
		"DSN_REMOTE_NAME="+name,
		"DSN_REMOTE_ENTROPY="+entropySeed,
	)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}
	t.Cleanup(kill)
	_ = stdin // held open for the child's lifetime; kill is the shutdown path

	scanner := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for scanner.Scan() {
			if a, ok := strings.CutPrefix(scanner.Text(), "LISTEN "); ok {
				addrCh <- a
				return
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr, kill
	case <-deadline:
		kill()
		t.Fatal("helper server never reported its address")
		return "", nil
	}
}

// runEngagement drives one engagement to completion and returns the rounds.
func runEngagement(t *testing.T, eng *dsnaudit.Engagement) []contract.RoundRecord {
	t.Helper()
	if _, err := eng.RunAll(context.Background()); err != nil {
		t.Fatalf("engagement %s: %v", eng.ID(), err)
	}
	return eng.Contract.Records()
}

// TestRemoteProcessParity is the acceptance pin: a full engagement —
// outsource, audit-data handoff, challenge/prove/settle rounds, payout —
// runs against a provider in a separate OS process over TCP, and its
// on-chain outcomes are byte-identical to the in-process path given the
// same beacon seed (and the same proof entropy).
func TestRemoteProcessParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a helper process; skipped in -short")
	}
	const entropy = "parity-entropy"
	fx := buildFixture(t, "parity-beacon")

	// In-process reference path: holder[0] proves locally.
	local := fx.sf.Holders[0]
	local.ProofEntropy = newDetReader(entropy)
	engLocal, err := fx.owner.Engage(fx.sf, local, smallTerms(3))
	if err != nil {
		t.Fatal(err)
	}

	// Remote path: holder[1] is the on-chain identity, but the audit state
	// lives in (and the proofs come from) a separate OS process.
	addr, _ := helperProcess(t, "remote-holder", entropy)
	client := NewClient(addr)
	defer client.Close()
	remoteHolder := fx.sf.Holders[1]
	engRemote, err := fx.owner.EngageWith(context.Background(), fx.sf, remoteHolder, client, smallTerms(3))
	if err != nil {
		t.Fatal(err)
	}

	balBefore := map[chain.Address]*big.Int{
		local.Address():        fx.net.Chain.Balance(local.Address()),
		remoteHolder.Address(): fx.net.Chain.Balance(remoteHolder.Address()),
	}

	localRecords := runEngagement(t, engLocal)
	remoteRecords := runEngagement(t, engRemote)

	// Outcome parity: states, round-by-round verdicts, proof sizes, gas.
	if engLocal.Contract.State() != contract.StateExpired || engRemote.Contract.State() != contract.StateExpired {
		t.Fatalf("states: local %v, remote %v, want both EXPIRED",
			engLocal.Contract.State(), engRemote.Contract.State())
	}
	if len(localRecords) != len(remoteRecords) {
		t.Fatalf("round counts differ: %d vs %d", len(localRecords), len(remoteRecords))
	}
	for i := range localRecords {
		l, r := localRecords[i], remoteRecords[i]
		if l.Passed != r.Passed || l.ProofSize != r.ProofSize || l.GasUsed != r.GasUsed || l.SettleGas != r.SettleGas {
			t.Fatalf("round %d diverged: local %+v, remote %+v", i, l, r)
		}
		if *l.Challenge != *r.Challenge {
			t.Fatalf("round %d challenges diverged under one beacon seed", i)
		}
	}

	// Balance parity: both providers earned exactly the same payment.
	deltaLocal := new(big.Int).Sub(fx.net.Chain.Balance(local.Address()), balBefore[local.Address()])
	deltaRemote := new(big.Int).Sub(fx.net.Chain.Balance(remoteHolder.Address()), balBefore[remoteHolder.Address()])
	if deltaLocal.Cmp(deltaRemote) != 0 {
		t.Fatalf("payment deltas differ: local %s, remote %s", deltaLocal, deltaRemote)
	}
	if deltaLocal.Sign() <= 0 {
		t.Fatalf("providers earned nothing: %s", deltaLocal)
	}

	// Byte parity: the proof transactions recorded on chain are identical
	// across the two transports (same beacon seed, same proof entropy).
	localProofs := proofTxData(t, fx.net, engLocal.ID())
	remoteProofs := proofTxData(t, fx.net, engRemote.ID())
	if len(localProofs) != 3 || len(remoteProofs) != 3 {
		t.Fatalf("proof tx counts: local %d, remote %d, want 3", len(localProofs), len(remoteProofs))
	}
	for i := range localProofs {
		if string(localProofs[i]) != string(remoteProofs[i]) {
			t.Fatalf("round %d proof bytes differ between in-process and remote paths", i)
		}
	}
}

// proofTxData collects the on-chain proof transaction payloads for one
// contract, in round order.
func proofTxData(t *testing.T, n *dsnaudit.Network, contractAddr chain.Address) [][]byte {
	t.Helper()
	var out [][]byte
	for _, blk := range n.Chain.Blocks() {
		for _, tx := range blk.Txs {
			if tx.To == contractAddr && strings.HasPrefix(tx.Note, "proof round ") {
				out = append(out, tx.Data)
			}
		}
	}
	return out
}

// TestRemoteProcessKilledMidEngagement is the liveness-fault acceptance
// pin: a provider process that dies mid-engagement yields missed rounds
// and the existing slashing path — the scheduler neither hangs nor spins.
func TestRemoteProcessKilledMidEngagement(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a helper process; skipped in -short")
	}
	fx := buildFixture(t, "kill-beacon")
	addr, kill := helperProcess(t, "doomed", "")
	client := NewClient(addr,
		WithCallTimeout(3*time.Second),
		WithRetries(1),
		withRetryBackoff(20*time.Millisecond))
	defer client.Close()

	holder := fx.sf.Holders[0]
	eng, err := fx.owner.EngageWith(context.Background(), fx.sf, holder, client, smallTerms(4))
	if err != nil {
		t.Fatal(err)
	}
	balBefore := fx.net.Chain.Balance(holder.Address())

	ctx := context.Background()
	// Round 1 runs against the live process.
	if ok, err := eng.RunRound(ctx); err != nil || !ok {
		t.Fatalf("round 1: ok=%v err=%v", ok, err)
	}
	// The provider process dies between rounds.
	kill()
	// Round 2 cannot get a proof; the deadline lapses and the contract
	// aborts with the provider slashed — the same path a silent in-process
	// responder takes.
	ok, err := eng.RunRound(ctx)
	if err != nil {
		t.Fatalf("round 2 should settle as missed, got error %v", err)
	}
	if ok {
		t.Fatal("round 2 passed against a dead provider")
	}
	if got := eng.Contract.State(); got != contract.StateAborted {
		t.Fatalf("state = %v, want ABORTED", got)
	}
	// Slashing evidence: the provider keeps only round 1's payment — its
	// 50k deposit (locked at Freeze, before the snapshot) never returns —
	// and nothing stays locked.
	delta := new(big.Int).Sub(fx.net.Chain.Balance(holder.Address()), balBefore)
	if delta.Cmp(smallTerms(4).PaymentPerRound) != 0 {
		t.Fatalf("provider balance delta %s, want exactly one round payment %s (deposit slashed)",
			delta, smallTerms(4).PaymentPerRound)
	}
	if locked := fx.net.Chain.LockedBalance(holder.Address()); locked.Sign() != 0 {
		t.Fatalf("provider still has %s locked after the abort", locked)
	}
	records := eng.Contract.Records()
	if len(records) != 2 || records[1].Passed {
		t.Fatalf("audit trail does not show the missed round: %+v", records)
	}
}

// TestTimeoutSlashedLikeSilent pins the transport-error mapping satellite:
// under the Scheduler, a remote provider that has vanished is slashed
// identically — same Result, same funds movement — to an in-process
// responder that silently errors.
func TestTimeoutSlashedLikeSilent(t *testing.T) {
	fx := buildFixture(t, "slash-map")

	// A dead address: listener opened and immediately closed, so dials are
	// refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	silentHolder, deadHolder := fx.sf.Holders[0], fx.sf.Holders[1]
	engSilent, err := fx.owner.Engage(fx.sf, silentHolder, smallTerms(3))
	if err != nil {
		t.Fatal(err)
	}
	engSilent.Responder = silentResponder{}
	engDead, err := fx.owner.Engage(fx.sf, deadHolder, smallTerms(3))
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(deadAddr,
		WithCallTimeout(2*time.Second),
		WithRetries(1),
		withRetryBackoff(10*time.Millisecond))
	defer client.Close()
	engDead.Responder = client

	balSilent := fx.net.Chain.Balance(silentHolder.Address())
	balDead := fx.net.Chain.Balance(deadHolder.Address())
	balOwner := fx.net.Chain.Balance(fx.owner.Address())

	s := sched.NewScheduler(fx.net)
	if err := s.Add(engSilent); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(engDead); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		t.Fatalf("scheduler did not terminate cleanly: %v", err)
	}

	resSilent, ok := s.Result(engSilent.ID())
	if !ok {
		t.Fatal("no result for the silent engagement")
	}
	resDead, ok := s.Result(engDead.ID())
	if !ok {
		t.Fatal("no result for the unreachable engagement")
	}
	if resSilent != resDead {
		t.Fatalf("outcomes differ:\n silent      %+v\n unreachable %+v", resSilent, resDead)
	}
	if resDead.State != contract.StateAborted || resDead.Failed != 1 || resDead.Rounds != 1 {
		t.Fatalf("unreachable provider outcome %+v, want 1 failed round and ABORTED", resDead)
	}
	// Funds parity: neither provider earned anything or got its deposit
	// back (deposits were locked before the snapshots), and the owner
	// collected both slashed deposits plus both unused escrows.
	deltaSilent := new(big.Int).Sub(fx.net.Chain.Balance(silentHolder.Address()), balSilent)
	deltaDead := new(big.Int).Sub(fx.net.Chain.Balance(deadHolder.Address()), balDead)
	if deltaSilent.Cmp(deltaDead) != 0 || deltaDead.Sign() != 0 {
		t.Fatalf("slashing differs: silent delta %s, unreachable delta %s, want both 0", deltaSilent, deltaDead)
	}
	terms := smallTerms(3)
	perContract := new(big.Int).Add(terms.ProviderDeposit,
		new(big.Int).Mul(terms.PaymentPerRound, big.NewInt(int64(terms.Rounds))))
	wantOwner := new(big.Int).Mul(perContract, big.NewInt(2))
	if deltaOwner := new(big.Int).Sub(fx.net.Chain.Balance(fx.owner.Address()), balOwner); deltaOwner.Cmp(wantOwner) != 0 {
		t.Fatalf("owner delta %s, want %s (two slashed deposits + two escrow refunds)", deltaOwner, wantOwner)
	}

	// And the transport error itself is classified correctly.
	ch, err := core.NewChallenge(4, newDetReader("classify"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Respond(context.Background(), engDead.ID(), ch); !errors.Is(err, dsnaudit.ErrProviderUnreachable) {
		t.Fatalf("respond error = %v, want ErrProviderUnreachable", err)
	}
}

type silentResponder struct{}

func (silentResponder) Respond(context.Context, chain.Address, *core.Challenge) ([]byte, error) {
	return nil, errors.New("responder wedged")
}

// TestSchedulerWithRemoteProviders drives several engagements through the
// concurrent Scheduler with every proof fetched over one TCP connection:
// the remote transport slots into the pipeline exactly like in-process
// responders, and all engagements expire fully paid.
func TestSchedulerWithRemoteProviders(t *testing.T) {
	fx := buildFixture(t, "sched-remote")
	node := dsnaudit.NewProviderNode("remote-sp")
	addr, _ := startServer(t, node)
	client := NewClient(addr)
	defer client.Close()

	s := sched.NewScheduler(fx.net)
	engs := make([]*dsnaudit.Engagement, 3)
	for i := range engs {
		eng, err := fx.owner.EngageWith(context.Background(), fx.sf, fx.sf.Holders[i], client, smallTerms(2))
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = eng
		if err := s.Add(eng); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, eng := range engs {
		res, ok := s.Result(eng.ID())
		if !ok {
			t.Fatalf("no result for %s", eng.ID())
		}
		if res.State != contract.StateExpired || res.Passed != 2 || res.Failed != 0 {
			t.Fatalf("engagement %s: %+v, want 2 passed rounds and EXPIRED", eng.ID(), res)
		}
	}
}
