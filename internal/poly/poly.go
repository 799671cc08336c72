// Package poly implements dense univariate polynomial arithmetic over the
// scalar field Zn, covering exactly the operations the paper's auditing
// protocol needs:
//
//   - the per-chunk data polynomials Mi(x) of Definition 1,
//   - the challenge combination Pk(x) of Definition 3,
//   - the witness quotient Qk(x) = (Pk(x) - Pk(r))/(x - r) via synthetic
//     division.
//
// Coefficients are bn256.Scalar values, so a polynomial is one flat slice of
// limbs and none of its arithmetic allocates per coefficient.
package poly

import (
	"fmt"

	"repro/internal/bn256"
)

// Poly is a dense polynomial; Coeffs[i] is the coefficient of x^i. The zero
// polynomial is represented by an empty (or all-zero) coefficient slice.
type Poly struct {
	Coeffs []bn256.Scalar
}

// zero returns the zero polynomial with capacity for deg+1 coefficients.
func zero(deg int) *Poly { return &Poly{Coeffs: make([]bn256.Scalar, deg+1)} }

// Eval evaluates p at x by Horner's rule.
func (p *Poly) Eval(x *bn256.Scalar) bn256.Scalar {
	var acc bn256.Scalar
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		acc.Mul(&acc, x).Add(&acc, &p.Coeffs[i])
	}
	return acc
}

// LinearCombination returns sum_i scalars[i] * polys[i]. All polynomials
// must have the same length. This is the hot path building Pk(x) from the k
// challenged chunk polynomials: bn256.ScalarLinearCombination keeps each
// output coefficient's sum unreduced and reduces it once.
func LinearCombination(polys []*Poly, scalars []bn256.Scalar) (*Poly, error) {
	if len(polys) != len(scalars) {
		return nil, fmt.Errorf("poly: %d polynomials but %d scalars", len(polys), len(scalars))
	}
	if len(polys) == 0 {
		return zero(0), nil
	}
	width := len(polys[0].Coeffs)
	rows := make([][]bn256.Scalar, len(polys))
	for i, q := range polys {
		if len(q.Coeffs) != width {
			return nil, fmt.Errorf("poly: polynomial %d has %d coefficients, want %d", i, len(q.Coeffs), width)
		}
		rows[i] = q.Coeffs
	}
	out := zero(width - 1)
	bn256.ScalarLinearCombination(out.Coeffs, scalars, rows)
	return out, nil
}

// DivideByLinear returns the quotient q(x) = (p(x) - p(r)) / (x - r) using
// synthetic (Horner/Ruffini) division, together with the remainder p(r).
// This is Definition 3's Qk(x): the KZG opening witness polynomial.
func (p *Poly) DivideByLinear(r *bn256.Scalar) (q *Poly, rem bn256.Scalar) {
	n := len(p.Coeffs)
	if n == 0 {
		return zero(0), rem
	}
	q = zero(max(n-2, 0))
	rem = p.Coeffs[n-1]
	for i := n - 2; i >= 0; i-- {
		q.Coeffs[i] = rem
		rem.Mul(&rem, r).Add(&rem, &p.Coeffs[i])
	}
	return q, rem
}
