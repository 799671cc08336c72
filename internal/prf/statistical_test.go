package prf

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/ff"
)

// TestCoefficientsUniformity runs a chi-square test on the challenge
// coefficients {c_l} bucketed over their range [0, 2^128): they must be
// statistically uniform there, which the argument beside Coefficients (and
// the detection analysis) assumes. Both halves of every PRF block are drawn.
func TestCoefficientsUniformity(t *testing.T) {
	const seeds, perSeed = 8, 256
	const buckets = 16
	counts := make([]int, buckets)
	for i := 0; i < seeds; i++ {
		for _, c := range Coefficients([]byte(fmt.Sprintf("seed-%d", i)), perSeed) {
			counts[new(big.Int).Rsh(c, 124).Int64()]++ // 16 buckets of 2^124
		}
	}
	expected := float64(seeds*perSeed) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom: P(chi2 > 37.7) < 0.001.
	if chi2 > 37.7 {
		t.Fatalf("coefficient distribution fails uniformity: chi2 = %.1f", chi2)
	}
}

// TestIndicesUniformCoverage checks that the PRP's index selection covers
// the domain evenly across seeds: over many draws of k from d, each index's
// selection frequency must track k/d.
func TestIndicesUniformCoverage(t *testing.T) {
	const d, k, draws = 40, 10, 800
	counts := make([]int, d)
	for i := 0; i < draws; i++ {
		idx, err := Indices([]byte(fmt.Sprintf("cov-%d", i)), d, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range idx {
			counts[j]++
		}
	}
	want := float64(draws*k) / d // 200 per index
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.35 {
			t.Fatalf("index %d selected %d times, want ~%.0f: selection biased", i, c, want)
		}
	}
}

// TestEvalPointAvalanche: flipping one seed bit must change the evaluation
// point completely (no structural relation an adversary could exploit to
// steer interpolation points).
func TestEvalPointAvalanche(t *testing.T) {
	seed := make([]byte, SeedSize)
	base := EvalPoint(seed)
	for bit := 0; bit < 8*SeedSize; bit += 13 {
		mut := make([]byte, SeedSize)
		copy(mut, seed)
		mut[bit/8] ^= 1 << (bit % 8)
		v := EvalPoint(mut)
		if ff.Equal(base, v) {
			t.Fatalf("bit %d flip left the evaluation point unchanged", bit)
		}
		// The difference must not be small (no near-collisions).
		diff := ff.Sub(base, v)
		if diff.BitLen() < 100 {
			t.Fatalf("bit %d flip produced a structured delta (%d bits)", bit, diff.BitLen())
		}
	}
}
