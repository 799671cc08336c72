package poly

import "repro/internal/bn256"

// The ring operations below are the tests' oracle and constructors; the
// protocol itself never adds or multiplies polynomials.

// newPoly builds a polynomial from a copy of the given coefficients (constant
// term first).
func newPoly(coeffs ...bn256.Scalar) *Poly {
	return &Poly{Coeffs: append([]bn256.Scalar(nil), coeffs...)}
}

// degree returns the degree of p, with -1 for the zero polynomial.
func (p *Poly) degree() int {
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		if !p.Coeffs[i].IsZero() {
			return i
		}
	}
	return -1
}

// add returns p + q.
func (p *Poly) add(q *Poly) *Poly {
	out := zero(max(len(p.Coeffs), len(q.Coeffs)) - 1)
	copy(out.Coeffs, p.Coeffs)
	for i := range q.Coeffs {
		out.Coeffs[i].Add(&out.Coeffs[i], &q.Coeffs[i])
	}
	return out
}

// mul returns p*q by schoolbook multiplication.
func (p *Poly) mul(q *Poly) *Poly {
	if p.degree() < 0 || q.degree() < 0 {
		return zero(0)
	}
	out := zero(len(p.Coeffs) + len(q.Coeffs) - 2)
	var t bn256.Scalar
	for i := range p.Coeffs {
		if p.Coeffs[i].IsZero() {
			continue
		}
		for j := range q.Coeffs {
			t.Mul(&p.Coeffs[i], &q.Coeffs[j])
			out.Coeffs[i+j].Add(&out.Coeffs[i+j], &t)
		}
	}
	return out
}
