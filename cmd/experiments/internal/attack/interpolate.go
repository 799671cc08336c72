package attack

import (
	"fmt"

	"repro/internal/bn256"
	"repro/internal/poly"
)

// interpolate returns the unique polynomial of degree < len(xs) passing
// through the points (xs[i], ys[i]). The xs must be pairwise distinct.
//
// This is the tool of the Section V-C adversary: observing s evaluations of
// the degree-(s-1) polynomial Pk on the chain fully reconstructs it.
func interpolate(xs, ys []bn256.Scalar) (*poly.Poly, error) {
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
			basis = mul(basis, newPoly(*negX.Neg(&xs[j]), one))
			denom.Mul(&denom, diff.Sub(&xs[i], &xs[j]))
		}
		var scale bn256.Scalar
		scale.Inv(&denom).Mul(&scale, &ys[i])
		result = add(result, scalarMul(basis, &scale))
	}
	return result, nil
}

// The ring operations interpolate needs; the protocol itself never adds or
// multiplies polynomials.

// newPoly builds a polynomial from a copy of the given coefficients (constant
// term first).
func newPoly(coeffs ...bn256.Scalar) *poly.Poly {
	return &poly.Poly{Coeffs: append([]bn256.Scalar(nil), coeffs...)}
}

// zero returns the zero polynomial with capacity for deg+1 coefficients.
func zero(deg int) *poly.Poly { return &poly.Poly{Coeffs: make([]bn256.Scalar, deg+1)} }

// degree returns the degree of p, with -1 for the zero polynomial.
func degree(p *poly.Poly) int {
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		if !p.Coeffs[i].IsZero() {
			return i
		}
	}
	return -1
}

// add returns p + q.
func add(p, q *poly.Poly) *poly.Poly {
	out := zero(max(len(p.Coeffs), len(q.Coeffs)) - 1)
	copy(out.Coeffs, p.Coeffs)
	for i := range q.Coeffs {
		out.Coeffs[i].Add(&out.Coeffs[i], &q.Coeffs[i])
	}
	return out
}

// scalarMul returns c * p.
func scalarMul(p *poly.Poly, c *bn256.Scalar) *poly.Poly {
	out := zero(len(p.Coeffs) - 1)
	for i := range p.Coeffs {
		out.Coeffs[i].Mul(&p.Coeffs[i], c)
	}
	return out
}

// mul returns p*q by schoolbook multiplication.
func mul(p, q *poly.Poly) *poly.Poly {
	if degree(p) < 0 || degree(q) < 0 {
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
