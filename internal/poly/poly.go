// Package poly implements dense univariate polynomial arithmetic over the
// scalar field Zn, covering exactly the operations the paper's auditing
// protocol needs:
//
//   - the per-chunk data polynomials Mi(x) of Definition 1,
//   - the challenge combination Pk(x) of Definition 3,
//   - the witness quotient Qk(x) = (Pk(x) - Pk(r))/(x - r) via synthetic
//     division, and
//   - Lagrange interpolation, used by the Section V-C adversary to
//     reconstruct Pk from on-chain audit trails.
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

// newPoly builds a polynomial from a copy of the given coefficients (constant
// term first).
func newPoly(coeffs ...bn256.Scalar) *Poly {
	return &Poly{Coeffs: append([]bn256.Scalar(nil), coeffs...)}
}

// zero returns the zero polynomial with capacity for deg+1 coefficients.
func zero(deg int) *Poly { return &Poly{Coeffs: make([]bn256.Scalar, deg+1)} }

// degree returns the degree of p, with -1 for the zero polynomial.
func (p *Poly) degree() int {
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		if !p.Coeffs[i].IsZero() {
			return i
		}
	}
	return -1
}

// Eval evaluates p at x by Horner's rule.
func (p *Poly) Eval(x *bn256.Scalar) bn256.Scalar {
	var acc bn256.Scalar
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		acc.Mul(&acc, x).Add(&acc, &p.Coeffs[i])
	}
	return acc
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

// scalarMul returns c * p.
func (p *Poly) scalarMul(c *bn256.Scalar) *Poly {
	out := zero(len(p.Coeffs) - 1)
	for i := range p.Coeffs {
		out.Coeffs[i].Mul(&p.Coeffs[i], c)
	}
	return out
}

// mul returns p*q by schoolbook multiplication, for Interpolate; the
// protocol itself never multiplies polynomials.
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

// Interpolate returns the unique polynomial of degree < len(xs) passing
// through the points (xs[i], ys[i]). The xs must be pairwise distinct.
//
// This is the tool of the Section V-C adversary: observing s evaluations of
// the degree-(s-1) polynomial Pk on the chain fully reconstructs it.
func Interpolate(xs, ys []bn256.Scalar) (*Poly, error) {
	k := len(xs)
	if len(ys) != k {
		return nil, fmt.Errorf("poly: %d abscissae but %d ordinates", k, len(ys))
	}
	// Duplicate abscissae make the system singular; detect them in O(k).
	seen := make(map[bn256.Scalar]int, k)
	for i, x := range xs {
		if j, dup := seen[x]; dup {
			return nil, fmt.Errorf("poly: duplicate interpolation abscissa at %d and %d", j, i)
		}
		seen[x] = i
	}

	var one bn256.Scalar
	one.SetUint64(1)
	result := zero(k - 1)
	for i := 0; i < k; i++ {
		// Build the i-th Lagrange basis polynomial incrementally.
		basis := newPoly(one)
		denom := one
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			// basis *= (x - xs[j])
			var negX, diff bn256.Scalar
			basis = basis.mul(newPoly(*negX.Neg(&xs[j]), one))
			denom.Mul(&denom, diff.Sub(&xs[i], &xs[j]))
		}
		var scale bn256.Scalar
		scale.Inv(&denom).Mul(&scale, &ys[i])
		result = result.add(basis.scalarMul(&scale))
	}
	return result, nil
}
