package poly

import (
	"testing"

	"repro/internal/bn256"
	"repro/internal/prf"
)

// BenchmarkAblationQuotientSynthetic measures the production quotient path
// (Definition 3's Qk via synthetic division): linear in s.
func BenchmarkAblationQuotientSynthetic(b *testing.B) {
	p := randPoly(b, 99)
	r := randScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DivideByLinear(&r)
	}
}

// BenchmarkAblationQuotientNaive measures the naive alternative the design
// rejected: computing the quotient by explicit long division through
// polynomial multiplication bookkeeping (quadratic in s).
func BenchmarkAblationQuotientNaive(b *testing.B) {
	p := randPoly(b, 99)
	r := randScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveQuotient(p, &r)
	}
}

// naiveQuotient computes (p(x) - p(r))/(x - r) by repeatedly stripping the
// leading term with a multiple of (x - r).
func naiveQuotient(p *Poly, r *bn256.Scalar) *Poly {
	rem := p.clone()
	pr := p.Eval(r)
	rem.Coeffs[0].Sub(&rem.Coeffs[0], &pr)
	n := len(rem.Coeffs)
	q := zero(n - 2)
	var t bn256.Scalar
	for d := n - 1; d >= 1; d-- {
		c := rem.Coeffs[d]
		if c.IsZero() {
			continue
		}
		q.Coeffs[d-1] = c
		// rem -= c * x^(d-1) * (x - r)
		rem.Coeffs[d] = bn256.Scalar{}
		rem.Coeffs[d-1].Add(&rem.Coeffs[d-1], t.Mul(&c, r))
	}
	return q
}

func TestNaiveQuotientMatchesSynthetic(t *testing.T) {
	p := randPoly(t, 19)
	r := randScalar(t)
	fast, _ := p.DivideByLinear(&r)
	slow := naiveQuotient(p, &r)
	if !fast.equal(slow) {
		t.Fatal("naive and synthetic quotients disagree")
	}
}

// BenchmarkLinearCombination is the prover's P_k at the paper's point: 300
// chunks of s = 50 under the challenge's coefficients.
func BenchmarkLinearCombination(b *testing.B) {
	const k, s = 300, 50
	polys := make([]*Poly, k)
	for i := range polys {
		polys[i] = randPoly(b, s-1)
	}
	scalars := prf.Coefficients([]byte("linear combination"), k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LinearCombination(polys, scalars); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEval is Setup's Mi(alpha) at the paper's s = 50.
func BenchmarkEval(b *testing.B) {
	p := randPoly(b, 49)
	x := randScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval(&x)
	}
}
