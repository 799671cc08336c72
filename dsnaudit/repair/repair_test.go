package repair

import (
	"bytes"
	"context"
	"math/big"
	"reflect"
	"testing"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

func eth(n int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
}

func testTerms(rounds int) dsnaudit.EngagementTerms {
	t := dsnaudit.DefaultTerms(rounds)
	t.ChallengeSize = 4
	return t
}

// fixture is one in-process repair scenario: a seeded network, an owner, a
// sharded file under per-share audit, and mortal transports in front of
// every provider so tests can crash them.
type fixture struct {
	net   *dsnaudit.Network
	owner *dsnaudit.Owner
	sf    *dsnaudit.StoredFile
	set   *dsnaudit.EngagementSet
	sched *sched.Scheduler
	mgr   *Manager
	data  []byte
	peers map[string]*mortalPeer
}

func (fx *fixture) peer(p *dsnaudit.ProviderNode) dsnaudit.RepairPeer {
	mp, ok := fx.peers[p.Name]
	if !ok {
		mp = &mortalPeer{node: p}
		fx.peers[p.Name] = mp
	}
	return mp
}

func buildFixture(t *testing.T, seed string, providers, k, m, rounds int, opts ...Option) *fixture {
	t.Helper()
	return buildFixtureOn(t, seed, providers, k, m, rounds, nil, opts...)
}

// buildFixtureOn is buildFixture with the scheduler's options exposed.
func buildFixtureOn(t *testing.T, seed string, providers, k, m, rounds int, schedOpts []sched.Option, opts ...Option) *fixture {
	t.Helper()
	b, err := beacon.NewTrusted([]byte(seed))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < providers; i++ {
		if _, err := net.AddProvider(string(rune('a'+i))+"-provider", eth(1)); err != nil {
			t.Fatal(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "alice", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{net: net, owner: owner, peers: make(map[string]*mortalPeer)}
	fx.data = make([]byte, 1800)
	for i := range fx.data {
		fx.data[i] = byte(i * 7)
	}
	fx.sf, err = owner.OutsourceSharded("tax-records", fx.data, k, m)
	if err != nil {
		t.Fatal(err)
	}
	terms := testTerms(rounds)
	fx.set, err = owner.EngageShares(context.Background(), fx.sf, terms,
		func(p *dsnaudit.ProviderNode) dsnaudit.ProviderTransport { return fx.peer(p) })
	if err != nil {
		t.Fatal(err)
	}
	fx.sched = sched.NewScheduler(net, schedOpts...)
	fx.mgr = NewManager(owner, fx.sched, append([]Option{WithPeers(fx.peer)}, opts...)...)
	if err := fx.mgr.Track(fx.sf, fx.set, terms); err != nil {
		t.Fatal(err)
	}
	if err := fx.sched.AddSet(fx.set); err != nil {
		t.Fatal(err)
	}
	return fx
}

// retrieveThroughPeers reassembles the file fetching only through the
// mortal transports, so dead holders really contribute nothing.
func (fx *fixture) retrieveThroughPeers(t *testing.T) []byte {
	t.Helper()
	man := fx.sf.Manifest
	shares := make([][]byte, len(man.ShareKeys))
	for i, key := range man.ShareKeys {
		data, err := fx.peer(fx.sf.Holders[i]).FetchShare(context.Background(), key)
		if err != nil || !man.VerifyShare(i, data) {
			continue
		}
		shares[i] = data
	}
	got, err := storage.Reassemble(man, fx.owner.EncKey, shares)
	if err != nil {
		t.Fatalf("file no longer reassembles: %v", err)
	}
	return got
}

// TestRepairAfterProviderDeath is the tentpole pin: a holder crashes
// mid-audit, the missed deadline convicts it, and the manager reconstructs
// the share from K survivors, re-places it on a reputation-ranked spare,
// and the replacement engagement passes every subsequent round — all
// within one scheduler run.
func TestRepairAfterProviderDeath(t *testing.T) {
	fx := buildFixture(t, "death-seed", 8, 3, 2, 3)
	victim := fx.sf.Holders[2]
	original := map[string]bool{}
	for _, h := range fx.sf.Holders {
		original[h.Name] = true
	}

	killed := false
	fx.sched.OnBlock(func(h uint64) {
		if h >= 3 && !killed {
			killed = true
			fx.peers[victim.Name].dead.Store(true)
			fx.net.Ring.Leave(victim.DHTNode.ID)
		}
	})
	if err := fx.sched.Run(context.Background()); err != nil {
		t.Fatalf("scheduler: %v", err)
	}

	st := fx.mgr.Stats()
	if st.SharesLost != 1 || st.SharesRepaired != 1 || st.SharesUnrecovered != 0 {
		t.Fatalf("stats = %+v, want exactly one loss, repaired", st)
	}
	if st.FetchesServed != fx.sf.Manifest.K {
		t.Fatalf("fetched %d survivor shares, want K=%d", st.FetchesServed, fx.sf.Manifest.K)
	}
	repairs := fx.mgr.Repairs()
	if len(repairs) != 1 {
		t.Fatalf("%d repair records, want 1", len(repairs))
	}
	rec := repairs[0]
	if rec.Err != nil || rec.From != victim.Name || rec.To == "" {
		t.Fatalf("repair record %+v", rec)
	}
	if original[rec.To] {
		t.Fatalf("replacement %s was already a holder of the file", rec.To)
	}
	if rec.Generation != 1 || rec.Bytes <= 0 {
		t.Fatalf("repair record %+v: want generation 1 and bytes moved", rec)
	}
	if fx.sf.Holders[2].Name != rec.To {
		t.Fatalf("holder table not updated: %s", fx.sf.Holders[2].Name)
	}

	// The replacement engagement served its full contract.
	eng, ok := fx.mgr.Current("tax-records", 2)
	if !ok || eng.Generation != 1 || eng.Provider.Name != rec.To {
		t.Fatalf("current slot engagement = %+v, ok=%v", eng, ok)
	}
	res, ok := fx.sched.Result(eng.ID())
	if !ok || res.State != contract.StateExpired || res.Failed != 0 || res.Passed != 3 {
		t.Fatalf("replacement result %+v, want 3/3 passed and EXPIRED", res)
	}

	// The conviction stands in reputation: the crashed provider is
	// hard-zeroed, while the survivors earned repair credit.
	if trust := fx.net.Reputation.Trust(victim.Name); trust != 0 {
		t.Fatalf("victim trust = %v, want 0 after slash", trust)
	}
	for j, h := range fx.sf.Holders {
		if j == 2 {
			continue
		}
		r, err := fx.net.Reputation.Record(h.Name)
		if err != nil || r.Score <= 0 {
			t.Fatalf("survivor %s record %+v err %v, want positive score", h.Name, r, err)
		}
	}

	// Ground truth: the file still decrypts through live transports only.
	if !bytes.Equal(fx.retrieveThroughPeers(t), fx.data) {
		t.Fatal("retrieved plaintext diverged after repair")
	}
}

// TestRepairRefusesCorruptedSurvivor pins the corrupted-share detection
// path: the convicted holder's share is gone AND one survivor serves
// rotten bytes. The manifest's per-share hash identifies the rotten
// survivor at fetch time; reconstruction proceeds from the remaining K.
func TestRepairRefusesCorruptedSurvivor(t *testing.T) {
	fx := buildFixture(t, "rot-seed", 9, 3, 2, 2)
	victim := fx.sf.Holders[0]
	rotten := fx.sf.Holders[1]
	rotten.Store.CorruptObject(fx.sf.Manifest.ShareKeys[1], 5)

	killed := false
	fx.sched.OnBlock(func(h uint64) {
		if h >= 3 && !killed {
			killed = true
			fx.peers[victim.Name].dead.Store(true)
			fx.net.Ring.Leave(victim.DHTNode.ID)
		}
	})
	if err := fx.sched.Run(context.Background()); err != nil {
		t.Fatalf("scheduler: %v", err)
	}

	st := fx.mgr.Stats()
	if st.SharesRepaired != 1 || st.SharesUnrecovered != 0 {
		t.Fatalf("stats = %+v, want the loss repaired despite the rotten survivor", st)
	}
	if st.FetchesRefused != 1 {
		t.Fatalf("FetchesRefused = %d, want 1 (the corrupted survivor)", st.FetchesRefused)
	}
	// The rotten holder was reported to reputation as refusing repair.
	r, err := fx.net.Reputation.Record(rotten.Name)
	if err != nil {
		t.Fatal(err)
	}
	if r.Slashed != 0 {
		t.Fatalf("repair refusal must not slash (audits convict, repair only ranks): %+v", r)
	}
	if !bytes.Equal(fx.retrieveThroughPeers(t), fx.data) {
		t.Fatal("retrieved plaintext diverged after repair")
	}
}

// TestRenewalKeepsFileUnderAudit pins the horizon mechanics: clean
// expiries re-engage on the same holder until the horizon, then the run
// drains with no losses.
func TestRenewalKeepsFileUnderAudit(t *testing.T) {
	fx := buildFixture(t, "renew-seed", 6, 2, 1, 2, WithHorizon(20))
	if err := fx.sched.Run(context.Background()); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	st := fx.mgr.Stats()
	if st.Renewals < 3 {
		t.Fatalf("renewals = %d, want at least one full renewal wave", st.Renewals)
	}
	if st.SharesLost != 0 || st.SharesRepaired != 0 {
		t.Fatalf("stats = %+v, want a loss-free run", st)
	}
	for id, res := range fx.sched.Results() {
		if res.State != contract.StateExpired || res.Failed != 0 {
			t.Fatalf("engagement %s ended %+v, want clean expiry", id, res)
		}
	}
	if !bytes.Equal(fx.retrieveThroughPeers(t), fx.data) {
		t.Fatal("retrieved plaintext diverged across renewals")
	}
}

// TestReconstructRoundTrip unit-tests the pure data-plane core.
func TestReconstructRoundTrip(t *testing.T) {
	key := make([]byte, storage.KeySize)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 13)
	}
	man, shares, err := storage.Prepare("f", key, data, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("LostShareRebuilt", func(t *testing.T) {
		survivors := make([][]byte, len(shares))
		copy(survivors, shares)
		survivors[1] = nil // the lost share
		survivors[4] = nil // and one more holder offline
		got, err := Reconstruct(man, survivors, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shares[1]) {
			t.Fatal("reconstructed share differs from the original")
		}
	})

	t.Run("CorruptedSurvivorDetected", func(t *testing.T) {
		survivors := make([][]byte, len(shares))
		copy(survivors, shares)
		survivors[1] = nil
		survivors[4] = nil
		bad := append([]byte(nil), shares[0]...)
		bad[10] ^= 0x40
		survivors[0] = bad
		if _, err := Reconstruct(man, survivors, 1); err == nil {
			t.Fatal("reconstruction from a corrupted survivor must fail the integrity check")
		}
	})

	t.Run("TooFewSurvivors", func(t *testing.T) {
		survivors := make([][]byte, len(shares))
		survivors[0], survivors[1] = shares[0], shares[1]
		if _, err := Reconstruct(man, survivors, 2); err == nil {
			t.Fatal("K-1 survivors must not reconstruct")
		}
	})
}

// proofLanded is a trace sink that signals, per engagement, the moment the
// scheduler's main loop has received and submitted its round-0 proof.
type proofLanded map[string]chan struct{}

func (p proofLanded) Emit(e obs.Event) {
	if ch, ok := p[e.Engagement]; ok && e.Type == obs.EvProof && e.Round == 0 {
		close(ch)
	}
}

// heldResponder returns its first proof only after the scheduler has taken
// in the proof of the engagement registered right after it.
type heldResponder struct {
	inner dsnaudit.Responder
	after <-chan struct{}
	held  bool
}

func (h *heldResponder) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	proof, err := h.inner.Respond(ctx, addr, ch)
	if !h.held {
		h.held = true
		select {
		case <-h.after:
		case <-ctx.Done():
		}
	}
	return proof, err
}

// TestSettleOrderIgnoresProofArrival is the regression test for the churn
// flake: a tick's settle block — and with it the order outcome hooks fire
// and repairs run in — used to follow the order proofs came back from the
// worker pool. Five shares are due in one tick, two of them cheat, and with
// one worker per share the proofs are forced to land in reverse registration
// order; hook order and repair order must match the single-worker run.
func TestSettleOrderIgnoresProofArrival(t *testing.T) {
	run := func(workers int, reverse bool) ([]chain.Address, []Record) {
		landed := proofLanded{}
		fx := buildFixtureOn(t, "order-seed", 10, 3, 2, 2,
			[]sched.Option{sched.WithWorkers(workers), sched.WithTracer(obs.NewTracer(landed))})
		engs := fx.set.Engagements
		for _, i := range []int{1, 3} {
			prover, ok := engs[i].Provider.Prover(engs[i].Contract.Addr)
			if !ok {
				t.Fatal("cheater prover state missing")
			}
			for c := 0; c < prover.File.NumChunks(); c++ {
				prover.File.Corrupt(c, 0)
			}
		}
		if reverse {
			for _, e := range engs {
				landed[string(e.ID())] = make(chan struct{})
			}
			for i, e := range engs[:len(engs)-1] {
				e.Responder = &heldResponder{inner: e.Responder, after: landed[string(engs[i+1].ID())]}
			}
		}
		var order []chain.Address
		fx.sched.OnOutcome(func(out dsnaudit.Outcome) { order = append(order, out.ID) })
		if err := fx.sched.Run(context.Background()); err != nil {
			t.Fatalf("scheduler: %v", err)
		}
		return order, fx.mgr.Repairs()
	}

	wantOrder, wantRepairs := run(1, false)
	if len(wantRepairs) != 2 || wantRepairs[0].Err != nil || wantRepairs[1].Err != nil {
		t.Fatalf("repairs %+v, want both cheaters' shares repaired", wantRepairs)
	}
	gotOrder, gotRepairs := run(5, true)
	if !reflect.DeepEqual(gotOrder, wantOrder) {
		t.Errorf("outcome hook order follows proof arrival:\n got  %v\n want %v", gotOrder, wantOrder)
	}
	if !reflect.DeepEqual(gotRepairs, wantRepairs) {
		t.Errorf("repair order follows proof arrival:\n got  %+v\n want %+v", gotRepairs, wantRepairs)
	}
}
