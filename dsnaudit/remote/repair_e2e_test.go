package remote

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/repair"
	"repro/dsnaudit/sched"
	"repro/internal/contract"
	"repro/internal/dsntest"
	"repro/internal/storage"
)

// TestRemoteRepairAfterProcessDeath is the repair subsystem's end-to-end
// acceptance pin over the real wire: n provider processes each hold one
// erasure share of a file under per-share audit, one process is killed
// mid-audit, and the repair manager — running entirely over TCP clients —
// convicts it via the missed deadline, fetches the K surviving shares with
// ShareRequest/ShareData, reconstructs the lost one, places it on the
// reputation-ranked spare provider, and the replacement engagement passes
// every subsequent round.
func TestRemoteRepairAfterProcessDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns helper processes; skipped in -short")
	}
	const (
		k         = 2
		m         = 1
		providers = 4 // k+m holders plus one spare for the re-placement
	)
	// Every provider identity gets its own OS process; the in-process nodes
	// carry only the on-chain side (address, deposits, reputation).
	names := []string{"rp-alpha", "rp-beta", "rp-gamma", "rp-delta"}
	w, err := dsntest.NewWorld("remote-repair-beacon", dsntest.Eth(1), names...)
	if err != nil {
		t.Fatal(err)
	}
	net := w.Net
	clients := make(map[string]*Client, providers)
	kills := make(map[string]func(), providers)
	for _, name := range names {
		addr, kill := helperProcess(t, name, "")
		client := NewClient(addr,
			WithCallTimeout(5*time.Second),
			WithRetries(1),
			withRetryBackoff(20*time.Millisecond))
		defer client.Close()
		clients[name] = client
		kills[name] = kill
	}
	peer := func(p *dsnaudit.ProviderNode) dsnaudit.RepairPeer { return clients[p.Name] }

	owner, err := w.Owner("remote-owner", 4, dsntest.Eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := dsntest.Pattern(1500, 13)
	sf, err := owner.OutsourceSharded("ledger", data, k, m)
	if err != nil {
		t.Fatal(err)
	}

	// Ship each share to its holder's process: the in-process placement
	// OutsourceSharded did is mirrored over the wire so the helper, not the
	// local node, is what serves repair fetches.
	ctx := context.Background()
	for i, holder := range sf.Holders {
		share, err := holder.FetchShare(ctx, sf.Manifest.ShareKeys[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := clients[holder.Name].PutShare(ctx, sf.Manifest.ShareKeys[i], share); err != nil {
			t.Fatalf("push share %d to %s: %v", i, holder.Name, err)
		}
	}

	terms := dsntest.SmallTerms(3)
	terms.ProofDeadline = 2
	set, err := owner.EngageShares(ctx, sf, terms,
		func(p *dsnaudit.ProviderNode) dsnaudit.ProviderTransport { return clients[p.Name] })
	if err != nil {
		t.Fatal(err)
	}

	s := sched.NewScheduler(net)
	mgr := repair.NewManager(owner, s, repair.WithPeers(peer))
	if err := mgr.Track(sf, set, terms); err != nil {
		t.Fatal(err)
	}
	for _, eng := range set.Engagements {
		if err := s.Add(eng); err != nil {
			t.Fatal(err)
		}
	}

	// Mid-audit, one holder's process dies. Its TCP endpoint starts refusing
	// connections; nothing in-process is touched.
	victim := sf.Holders[1]
	killed := false
	s.OnBlock(func(h uint64) {
		if !killed && h >= 4 {
			killed = true
			kills[victim.Name]()
		}
	})

	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("the victim process was never killed; the run ended too early")
	}

	// Exactly one loss, repaired, nothing unrecovered — and the survivor
	// fetches all ran over the wire protocol.
	st := mgr.Stats()
	if st.SharesLost != 1 || st.SharesRepaired != 1 || st.SharesUnrecovered != 0 {
		t.Fatalf("stats %+v, want exactly one repaired loss", st)
	}
	if st.FetchesServed != k {
		t.Fatalf("%d survivor fetches served, want %d", st.FetchesServed, k)
	}
	recs := mgr.Repairs()
	if len(recs) != 1 {
		t.Fatalf("repair records %+v, want exactly one", recs)
	}
	rec := recs[0]
	if rec.Err != nil || rec.From != victim.Name {
		t.Fatalf("repair record %+v, want a clean repair away from %s", rec, victim.Name)
	}
	for _, h := range sf.Holders[:1] {
		if rec.To == h.Name {
			t.Fatalf("replacement %s is an original holder", rec.To)
		}
	}

	// The reputation-ranked replacement passed every round of its fresh
	// contract.
	repEng, ok := mgr.Current("ledger", rec.Index)
	if !ok || repEng.Provider.Name != rec.To || repEng.Generation != 1 {
		t.Fatalf("current engagement for the repaired slot is %+v, want generation 1 on %s", repEng, rec.To)
	}
	res, ok := s.Results()[repEng.ID()]
	if !ok {
		t.Fatal("replacement engagement has no result")
	}
	if res.State != contract.StateExpired || res.Passed != terms.Rounds || res.Failed != 0 {
		t.Fatalf("replacement result %+v, want %d passed rounds and EXPIRED", res, terms.Rounds)
	}

	// The conviction stuck: the dead provider's trust is zeroed, the
	// survivors earned repair credit.
	if trust := net.Reputation.Trust(victim.Name); trust != 0 {
		t.Fatalf("victim trust %v after missed deadlines, want 0", trust)
	}

	// Durability over the wire: the file reassembles from shares served by
	// the current holder processes alone.
	shares := make([][]byte, k+m)
	for i, holder := range sf.Holders {
		share, err := clients[holder.Name].FetchShare(ctx, sf.Manifest.ShareKeys[i])
		if err != nil {
			t.Fatalf("fetch share %d from %s: %v", i, holder.Name, err)
		}
		if !sf.Manifest.VerifyShare(i, share) {
			t.Fatalf("share %d from %s fails its manifest hash", i, holder.Name)
		}
		shares[i] = share
	}
	plain, err := storage.Reassemble(sf.Manifest, owner.EncKey, shares)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, data) {
		t.Fatal("file content diverged after the remote repair")
	}
}
