package core

import (
	"crypto/rand"
	"fmt"
	"testing"
)

// benchWorkerCounts is the cores-vs-throughput ladder.
var benchWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkSetupParallel measures authenticator generation throughput (the
// owner's 5 MB/s preprocessing bottleneck) across worker counts; MB/s is
// the headline number and scales with cores up to GOMAXPROCS.
func BenchmarkSetupParallel(b *testing.B) {
	const s, fileBytes = 8, 256 << 10
	sk, err := KeyGen(s, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, fileBytes)
	rand.Read(data)
	ef, err := EncodeFile(data, s)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(fileBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SetupParallel(sk, ef, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyBatchParallel measures batched settlement verification at
// the fleet shape (an all-honest block of 24 proofs at s = 4, k = 8 under one
// owner key: three multi-scalar multiplications, one GT multi-exponentiation,
// 3 Miller loops and one shared final exponentiation) across worker counts,
// reporting proofs settled per second. It is the microbenchmark behind the
// verify line of the fleet_small budget.
func BenchmarkVerifyBatchParallel(b *testing.B) {
	const n, s, k = 24, 4, 8
	items := make([]*BatchItem, n)
	sk, err := KeyGen(s, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 2<<10)
	rand.Read(data)
	ef, err := EncodeFile(data, s)
	if err != nil {
		b.Fatal(err)
	}
	auths, err := Setup(sk, ef)
	if err != nil {
		b.Fatal(err)
	}
	prover, err := NewProver(sk.Pub, ef, auths)
	if err != nil {
		b.Fatal(err)
	}
	for i := range items {
		ch, err := NewChallenge(k, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		items[i] = &BatchItem{Pub: sk.Pub, NumChunks: ef.NumChunks(), Challenge: ch, Proof: proof}
	}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verdicts := VerifyBatchParallel(items, nil, workers)
				for j, v := range verdicts {
					if !v {
						b.Fatalf("honest proof %d rejected", j)
					}
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "proofs/s")
		})
	}
}
