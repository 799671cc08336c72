// Package repro_test is the top-level benchmark harness: one benchmark per
// table and figure of the paper's evaluation (Section VII), plus ablations
// for its design choices. cmd/experiments prints the same data as formatted
// tables; these benches integrate with the standard go test -bench tooling
// and feed EXPERIMENTS.md.
//
// Custom metrics reported via b.ReportMetric:
//
//	bytes   -- serialized sizes (keys, proofs)
//	gas     -- modeled on-chain gas
//	USD     -- modeled dollar cost at the paper's Apr-2020 prices
package repro_test

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/merkle"
	"repro/internal/snark"
)

// buildProver constructs a prover over a file with `chunks` chunks of size s.
func buildProver(b *testing.B, s, chunks int) *core.Prover {
	b.Helper()
	sk, err := core.KeyGen(s, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, chunks*s*core.BlockSize)
	rand.Read(data)
	ef, err := core.EncodeFile(data, s)
	if err != nil {
		b.Fatal(err)
	}
	auths, err := core.Setup(sk, ef)
	if err != nil {
		b.Fatal(err)
	}
	prover, err := core.NewProver(sk.Pub, ef, auths)
	if err != nil {
		b.Fatal(err)
	}
	return prover
}

// --- Table I ---

// BenchmarkTableI renders the qualitative comparison matrix (cost is
// trivial; the bench exists so every table has a named target).
func BenchmarkTableI(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = cost.FormatTableI(cost.TableI())
	}
	b.ReportMetric(float64(len(out)), "bytes")
}

// --- Table II ---

// BenchmarkTableIIStrawmanProve measures the functional path of the
// simulated SNARK strawman (witness check + proof emission). The paper's
// 30 s figure is the modeled Bellman cost; the model itself is validated in
// internal/snark tests.
func BenchmarkTableIIStrawmanProve(b *testing.B) {
	leaves := make([][]byte, 32) // 1 KB file in 32-byte leaves
	for i := range leaves {
		leaves[i] = make([]byte, 32)
		rand.Read(leaves[i])
	}
	tree, err := merkle.New(leaves)
	if err != nil {
		b.Fatal(err)
	}
	circuit := snark.CircuitForFile(1024, 32)
	pk, _, err := snark.TrustedSetup(circuit, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	witness, err := tree.Prove(7, leaves[7])
	if err != nil {
		b.Fatal(err)
	}
	st := snark.Statement{Root: tree.Root(), Index: 7}
	costs := snark.ReferenceCostModel().Estimate(circuit)
	b.ReportMetric(float64(costs.Constraints), "constraints")
	b.ReportMetric(costs.ProveTime.Seconds(), "modeled-prove-s")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Prove(st, len(leaves), witness, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIMainProve measures the main solution's private proof
// generation at the paper's operating point (s=50, k=300).
func BenchmarkTableIIMainProve(b *testing.B) {
	prover := buildProver(b, 50, 300)
	ch, err := core.NewChallenge(300, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			enc, err := proof.Marshal()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(enc)), "proof-bytes")
		}
	}
}

// BenchmarkTableIIMainVerify measures on-chain-equivalent verification of
// the 288-byte private proof.
func BenchmarkTableIIMainVerify(b *testing.B) {
	prover := buildProver(b, 50, 300)
	ch, err := core.NewChallenge(300, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	d := prover.File.NumChunks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.VerifyPrivate(prover.Pub, d, ch, proof) {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkTableIIMainPreprocess measures Setup throughput (MB/s); Table II
// and Fig. 7 scale this to 1 GB.
func BenchmarkTableIIMainPreprocess(b *testing.B) {
	const s = 50
	sk, err := core.KeyGen(s, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<20)
	rand.Read(data)
	ef, err := core.EncodeFile(data, s)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Setup(sk, ef); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 4 ---

// BenchmarkFig4PublicKeySize reports serialized key sizes across s.
func BenchmarkFig4PublicKeySize(b *testing.B) {
	for _, s := range []int{10, 20, 50, 100} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			sk, err := core.KeyGen(s, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			var plain, private []byte
			for i := 0; i < b.N; i++ {
				plain, err = sk.Pub.Marshal(false)
				if err != nil {
					b.Fatal(err)
				}
				private, err = sk.Pub.Marshal(true)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(plain)), "plain-bytes")
			b.ReportMetric(float64(len(private)), "private-bytes")
		})
	}
}

// --- Fig. 5 ---

// BenchmarkFig5Gas evaluates the gas extrapolation across the verification
// time range, reporting the anchor point.
func BenchmarkFig5Gas(b *testing.B) {
	m := cost.PaperGasModel()
	var anchor uint64
	for i := 0; i < b.N; i++ {
		cost.Fig5Series(m)
		anchor = m.AuditGas(288, 7200*time.Microsecond)
	}
	b.ReportMetric(float64(anchor), "gas")
	b.ReportMetric(cost.PaperPrice().GasToUSD(anchor), "USD")
}

// --- Fig. 6 ---

// BenchmarkFig6Fees evaluates the fee model, reporting the 360-day daily
// figure the paper compares against cloud pricing.
func BenchmarkFig6Fees(b *testing.B) {
	f := cost.PaperFeeModel()
	var usd float64
	for i := 0; i < b.N; i++ {
		rows := cost.Fig6Series(f)
		usd = rows[3].DailyUSD // 360 days
	}
	b.ReportMetric(usd, "USD-360d-daily")
}

// --- Fig. 7 ---

// BenchmarkFig7Preprocess measures owner preprocessing across s (per-MB
// throughput; multiply to 1 GB for the figure's y axis).
func BenchmarkFig7Preprocess(b *testing.B) {
	for _, s := range []int{10, 20, 50, 100, 200} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			sk, err := core.KeyGen(s, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, 512<<10)
			rand.Read(data)
			ef, err := core.EncodeFile(data, s)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Setup(sk, ef); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// w/o the s parameter: per-block authenticators (s=1).
	b.Run("s=1-no-param", func(b *testing.B) {
		sk, err := core.KeyGen(1, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 32<<10)
		rand.Read(data)
		ef, err := core.EncodeFile(data, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Setup(sk, ef); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Fig. 8 ---

// BenchmarkFig8Prove measures proof generation at k=300 across s, with and
// without the privacy layer.
func BenchmarkFig8Prove(b *testing.B) {
	for _, s := range []int{10, 20, 50, 100} {
		prover := buildProver(b, s, 300)
		ch, err := core.NewChallenge(300, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("s=%d/plain", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prover.Prove(ch, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("s=%d/private", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prover.ProvePrivate(ch, nil, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 9 ---

// BenchmarkFig9Confidence measures proof generation across the
// storage-confidence sweep (k = 240..460 at 1% corruption).
func BenchmarkFig9Confidence(b *testing.B) {
	prover := buildProver(b, 50, 470)
	for _, conf := range []float64{0.91, 0.95, 0.99} {
		k := core.ChunksForConfidence(conf, 0.01)
		ch, err := core.NewChallenge(k, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("conf=%.0f%%/k=%d", conf*100, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prover.ProvePrivate(ch, nil, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 10 ---

// BenchmarkFig10Scalability evaluates the chain-growth and throughput
// models and measures the per-contract proving time that the figure's right
// panel aggregates linearly.
func BenchmarkFig10Scalability(b *testing.B) {
	m := cost.PaperScalabilityModel()
	prover := buildProver(b, 50, 300)
	ch, err := core.NewChallenge(300, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prover.ProvePrivate(ch, nil, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(m.AnnualChainGrowthGB(10000), "GB-per-year-10k-users")
	b.ReportMetric(m.TxPerSecond(), "tx-per-sec")
	b.ReportMetric(float64(m.SupportedUsers(10)), "users-10x-redundancy")
}

// --- Ablations ---

// BenchmarkAblationBatchAudit compares batch verification (shared final
// exponentiation) against sequential verification for a provider holding
// data of many owners (Section VII-D).
func BenchmarkAblationBatchAudit(b *testing.B) {
	const users = 4
	items := make([]*core.BatchItem, users)
	for i := range items {
		prover := buildProver(b, 10, 40)
		ch, err := core.NewChallenge(10, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		items[i] = &core.BatchItem{
			Pub:       prover.Pub,
			NumChunks: prover.File.NumChunks(),
			Challenge: ch,
			Proof:     proof,
		}
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !core.BatchVerify(items) {
				b.Fatal("batch failed")
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				if !core.VerifyPrivate(it.Pub, it.NumChunks, it.Challenge, it.Proof) {
					b.Fatal("verify failed")
				}
			}
		}
	})
}

// buildEngagements deploys `n` independent audit contracts (one owner and
// one primary share holder each) on a fresh network.
func buildEngagements(b *testing.B, n, rounds, s, k int) (*dsnaudit.Network, []*dsnaudit.Engagement) {
	b.Helper()
	net, err := dsnaudit.NewNetwork()
	if err != nil {
		b.Fatal(err)
	}
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18))
	for i := 0; i < 16; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("sp-%02d", i), funds); err != nil {
			b.Fatal(err)
		}
	}
	engs := make([]*dsnaudit.Engagement, n)
	for i := range engs {
		owner, err := dsnaudit.NewOwner(net, fmt.Sprintf("owner-%d", i), s, funds)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 4<<10)
		rand.Read(data)
		sf, err := owner.Outsource(fmt.Sprintf("bench-%d", i), data, 3, 7)
		if err != nil {
			b.Fatal(err)
		}
		terms := dsnaudit.DefaultTerms(rounds)
		terms.ChallengeSize = k
		engs[i], err = owner.Engage(sf, sf.Holders[0], terms)
		if err != nil {
			b.Fatal(err)
		}
	}
	return net, engs
}

// BenchmarkMultiEngagement measures end-to-end audit throughput for N
// engagements x M rounds on one chain: the sequential RunAll driver against
// the concurrent Scheduler (the paper's many-owners deployment, Fig. 10
// right), and the Scheduler's two settlement strategies against each other
// — per-proof verification (one final exponentiation per proof) versus the
// default batched settlement (one shared final exponentiation per block,
// Section VII-D). Rounds/sec is the headline metric.
func BenchmarkMultiEngagement(b *testing.B) {
	const engagements, rounds, s, k = 8, 2, 8, 10
	ctx := context.Background()

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, engs := buildEngagements(b, engagements, rounds, s, k)
			b.StartTimer()
			total := 0
			for _, e := range engs {
				p, err := e.RunAll(ctx)
				if err != nil {
					b.Fatal(err)
				}
				total += p
			}
			if total != engagements*rounds {
				b.Fatalf("passed %d rounds, want %d", total, engagements*rounds)
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds()*float64(b.N), "rounds/s")
		}
	})
	runScheduler := func(b *testing.B, opts ...sched.Option) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net, engs := buildEngagements(b, engagements, rounds, s, k)
			s := sched.NewScheduler(net, opts...)
			for _, e := range engs {
				if err := s.Add(e); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if err := s.Run(ctx); err != nil {
				b.Fatal(err)
			}
			total := 0
			for _, res := range s.Results() {
				total += res.Passed
			}
			if total != engagements*rounds {
				b.Fatalf("passed %d rounds, want %d", total, engagements*rounds)
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds()*float64(b.N), "rounds/s")
			var settleGas uint64
			for _, e := range engs {
				for _, rec := range e.Contract.Records() {
					settleGas += rec.SettleGas
				}
			}
			b.ReportMetric(float64(settleGas)/float64(total), "settle-gas/round")
		}
	}
	b.Run("scheduler/per-proof", func(b *testing.B) {
		runScheduler(b, sched.WithVerifier(dsnaudit.PerProofVerifier{}))
	})
	b.Run("scheduler/batched", func(b *testing.B) {
		var stats core.BatchStats
		runScheduler(b, sched.WithVerifier(&dsnaudit.BatchVerifier{Stats: &stats}))
		b.ReportMetric(float64(stats.FinalExps)/float64(b.N), "final-exps")
		b.ReportMetric(float64(stats.MillerLoops)/float64(b.N), "miller-loops")
	})
}

// BenchmarkAblationProofSize compares the on-chain calldata cost of the two
// proof flavors plus the Merkle baseline for a 1 GiB file: the paper's
// succinctness argument in one table.
func BenchmarkAblationProofSize(b *testing.B) {
	g := cost.PaperGasModel()
	var plainGas, privGas, merkleGas uint64
	for i := 0; i < b.N; i++ {
		plainGas = g.AuditGas(core.ProofSize, 7*time.Millisecond)
		privGas = g.AuditGas(core.PrivateProofSize, 7200*time.Microsecond)
		merkleGas = g.AuditGas(merkle.ProofSize(1<<18, 4096), 2*time.Millisecond)
	}
	b.ReportMetric(float64(plainGas), "plain-gas")
	b.ReportMetric(float64(privGas), "private-gas")
	b.ReportMetric(float64(merkleGas), "merkle-gas")
}
