package remote

import (
	"context"
	"testing"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/contract"
	"repro/internal/core"
)

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

// BenchmarkRemoteRespond measures one full remote proof round-trip over
// loopback TCP — challenge out, k-chunk privacy-assured proof back — the
// per-round latency a networked provider adds over in-process proving.
func BenchmarkRemoteRespond(b *testing.B) {
	fx := buildFixture(b, "bench-remote")
	node := dsnaudit.NewProviderNode("bench-sp")
	addr, _ := startServer(b, node)
	client := NewClient(addr)
	defer client.Close()
	ctx := context.Background()

	const contractAddr = "bench-contract"
	if err := client.AcceptAuditData(ctx, contractAddr, fx.owner.AuditSK.Pub, fx.sf.Encoded, fx.sf.Auths, 2); err != nil {
		b.Fatal(err)
	}
	ch, err := core.NewChallenge(fx.sf.Encoded.NumChunks(), newDetReader("bench"))
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := client.Respond(ctx, contractAddr, ch)
		if err != nil {
			b.Fatal(err)
		}
		if len(proof) != core.PrivateProofSize {
			b.Fatalf("proof is %d bytes, want %d", len(proof), core.PrivateProofSize)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "proofs/s")
}
