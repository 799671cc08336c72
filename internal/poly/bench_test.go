package poly

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/ff"
	"repro/internal/prf"
)

func benchPoly(b *testing.B, deg int) *Poly {
	b.Helper()
	v, err := ff.RandomVector(rand.Reader, deg+1)
	if err != nil {
		b.Fatal(err)
	}
	return FromVector(v)
}

// BenchmarkAblationQuotientSynthetic measures the production quotient path
// (Definition 3's Qk via synthetic division): linear in s.
func BenchmarkAblationQuotientSynthetic(b *testing.B) {
	p := benchPoly(b, 99)
	r, _ := ff.Random(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DivideByLinear(r)
	}
}

// BenchmarkAblationQuotientNaive measures the naive alternative the design
// rejected: computing the quotient by explicit long division through
// polynomial multiplication bookkeeping (quadratic in s).
func BenchmarkAblationQuotientNaive(b *testing.B) {
	p := benchPoly(b, 99)
	r, _ := ff.Random(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveQuotient(p, r)
	}
}

// naiveQuotient computes (p(x) - p(r))/(x - r) by repeatedly stripping the
// leading term with a multiple of (x - r).
func naiveQuotient(p *Poly, r *big.Int) *Poly {
	rem := p.Clone()
	rem.Coeffs[0] = ff.Sub(rem.Coeffs[0], p.Eval(r))
	n := len(rem.Coeffs)
	q := ff.NewVector(n - 1)
	for d := n - 1; d >= 1; d-- {
		c := rem.Coeffs[d]
		if c.Sign() == 0 {
			continue
		}
		q[d-1] = new(big.Int).Set(c)
		// rem -= c * x^(d-1) * (x - r)
		rem.Coeffs[d] = new(big.Int)
		rem.Coeffs[d-1] = ff.Add(rem.Coeffs[d-1], ff.Mul(c, r))
	}
	return &Poly{Coeffs: q}
}

func TestNaiveQuotientMatchesSynthetic(t *testing.T) {
	v, _ := ff.RandomVector(rand.Reader, 20)
	p := FromVector(v)
	r, _ := ff.Random(rand.Reader)
	fast, _ := p.DivideByLinear(r)
	slow := naiveQuotient(p, r)
	if !fast.Equal(slow) {
		t.Fatal("naive and synthetic quotients disagree")
	}
}

// BenchmarkLinearCombination is the prover's P_k at the paper's point: 300
// chunks of s = 50 under the challenge's coefficients.
func BenchmarkLinearCombination(b *testing.B) {
	const k, s = 300, 50
	polys := make([]*Poly, k)
	for i := range polys {
		polys[i] = benchPoly(b, s-1)
	}
	scalars := prf.Coefficients([]byte("linear combination"), k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LinearCombination(polys, scalars); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpolate(b *testing.B) {
	const k = 50
	xs, _ := ff.RandomVector(rand.Reader, k)
	ys, _ := ff.RandomVector(rand.Reader, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Interpolate(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
