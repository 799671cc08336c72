package core

import (
	"crypto/rand"
	"fmt"
	"testing"
)

// benchWorkerCounts is the cores-vs-throughput ladder.
var benchWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkSetupParallel measures authenticator generation at the paper's
// s = 50 over the files the workloads onboard -- a fleet file's 17 chunks, a
// 128 KiB file's 85 and a 512 KiB file's 339 -- at one and two workers: with
// two, the 17 chunks split below the lockstep crossover and the others stay
// above it. MB/s is the headline number.
func BenchmarkSetupParallel(b *testing.B) {
	const s = 50
	sk, err := KeyGen(s, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	for _, chunks := range []int{17, 85, 339} {
		data := make([]byte, chunks*s*BlockSize)
		rand.Read(data)
		ef, err := EncodeFile(data, s)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("chunks=%d/workers=%d", chunks, workers), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					if _, err := SetupParallel(sk, ef, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchBatch returns n honest items under one owner key at s = 4 with
// challenges of k chunks, over a file of d chunks.
func benchBatch(b *testing.B, n, k, d int) []*BatchItem {
	b.Helper()
	const s = 4
	sk, err := KeyGen(s, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, d*s*BlockSize)
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
	items := make([]*BatchItem, n)
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
	return items
}

// BenchmarkVerifyBatchParallel measures batched settlement verification at
// the fleet shape (an all-honest block of 24 proofs at s = 4, k = 8 under one
// owner key: three multi-scalar multiplications, one GT multi-exponentiation,
// 3 Miller loops and one shared final exponentiation) across worker counts,
// reporting proofs settled per second. It is the microbenchmark behind the
// verify line of the fleet_small budget when nothing was prepared on arrival
// (a block adopted after recovery); BenchmarkVerifyPreparedParallel is the
// scheduler's case.
func BenchmarkVerifyBatchParallel(b *testing.B) {
	const n = 24
	items := benchBatch(b, n, 8, 17)
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

// BenchmarkVerifyPreparedParallel is BenchmarkVerifyBatchParallel over items
// prepared on arrival (PrepareProof), at the fleet shape and at the paper's
// (16 proofs at k = 300, tags collapsed into chi): what a sealed block still
// costs its settlement — the weights, the sums, the Miller loops and the
// final exponentiation. BenchmarkPrepareProof is the cost moved to the prove
// workers.
func BenchmarkVerifyPreparedParallel(b *testing.B) {
	for _, shape := range []struct {
		name    string
		n, k, d int
	}{{"fleet", 24, 8, 17}, {"paper", 16, 300, 339}} {
		items := benchBatch(b, shape.n, shape.k, shape.d)
		preps := make([]*PreparedProof, len(items))
		for i, it := range items {
			raw, err := it.Proof.Marshal()
			if err != nil {
				b.Fatal(err)
			}
			if preps[i], err = PrepareProof(it.Pub, it.NumChunks, it.Challenge, raw); err != nil {
				b.Fatal(err)
			}
		}
		for _, workers := range benchWorkerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					verdicts := VerifyPrepared(preps, nil, workers)
					for j, v := range verdicts {
						if !v {
							b.Fatalf("honest proof %d rejected", j)
						}
					}
				}
				b.ReportMetric(float64(shape.n)*float64(b.N)/b.Elapsed().Seconds(), "proofs/s")
			})
		}
	}
}

// BenchmarkPrepareProof measures the per-item step a prove worker runs on
// each proof it receives — decoding (R's subgroup check), challenge
// expansion, zeta and the k tags, collapsed into chi at k = 300 — on one
// goroutine, at the fleets' k = 8 over 17 chunks and the paper's k = 300
// over 339. cold empties the tag memo before every step, so all k tags are
// hashed, as on a file's first round; warm finds them all in it, as on every
// round once the file's challenged chunks have been seen.
func BenchmarkPrepareProof(b *testing.B) {
	for _, shape := range []struct{ k, d int }{{8, 17}, {300, 339}} {
		it := benchBatch(b, 1, shape.k, shape.d)[0]
		raw, err := it.Proof.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		for _, cold := range []bool{true, false} {
			name := fmt.Sprintf("k=%d/warm", shape.k)
			if cold {
				name = fmt.Sprintf("k=%d/cold", shape.k)
			}
			b.Run(name, func(b *testing.B) {
				if _, err := PrepareProof(it.Pub, it.NumChunks, it.Challenge, raw); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						b.StopTimer()
						resetTagMemo()
						b.StartTimer()
					}
					if _, err := PrepareProof(it.Pub, it.NumChunks, it.Challenge, raw); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
