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
package poly

import (
	"fmt"
	"math/big"

	"repro/internal/ff"
)

// Poly is a dense polynomial; Coeffs[i] is the coefficient of x^i. The zero
// polynomial is represented by an empty (or all-zero) coefficient slice.
type Poly struct {
	Coeffs ff.Vector
}

// New builds a polynomial from the given coefficients (constant term first).
// The coefficients are copied and reduced.
func New(coeffs ...*big.Int) *Poly {
	c := make(ff.Vector, len(coeffs))
	for i, v := range coeffs {
		c[i] = ff.Reduce(new(big.Int).Set(v))
	}
	return &Poly{Coeffs: c}
}

// FromVector builds a polynomial that uses the vector's elements as
// coefficients without copying. Callers must not alias.
func FromVector(v ff.Vector) *Poly { return &Poly{Coeffs: v} }

// Zero returns the zero polynomial with capacity for deg+1 coefficients.
func Zero(deg int) *Poly { return &Poly{Coeffs: ff.NewVector(deg + 1)} }

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p *Poly) Degree() int {
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		if p.Coeffs[i].Sign() != 0 {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy.
func (p *Poly) Clone() *Poly { return &Poly{Coeffs: p.Coeffs.Clone()} }

// Equal reports mathematical equality (ignoring trailing zeros).
func (p *Poly) Equal(q *Poly) bool {
	n := len(p.Coeffs)
	if len(q.Coeffs) > n {
		n = len(q.Coeffs)
	}
	zero := new(big.Int)
	for i := 0; i < n; i++ {
		a, b := zero, zero
		if i < len(p.Coeffs) {
			a = p.Coeffs[i]
		}
		if i < len(q.Coeffs) {
			b = q.Coeffs[i]
		}
		if !ff.Equal(a, b) {
			return false
		}
	}
	return true
}

// Eval evaluates p at x by Horner's rule.
func (p *Poly) Eval(x *big.Int) *big.Int {
	acc := new(big.Int)
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, x)
		acc.Add(acc, p.Coeffs[i])
		ff.Reduce(acc)
	}
	return acc
}

// Add returns p + q.
func (p *Poly) Add(q *Poly) *Poly {
	n := len(p.Coeffs)
	if len(q.Coeffs) > n {
		n = len(q.Coeffs)
	}
	out := ff.NewVector(n)
	for i := 0; i < n; i++ {
		if i < len(p.Coeffs) {
			out[i].Add(out[i], p.Coeffs[i])
		}
		if i < len(q.Coeffs) {
			out[i].Add(out[i], q.Coeffs[i])
		}
		ff.Reduce(out[i])
	}
	return &Poly{Coeffs: out}
}

// ScalarMul returns c * p.
func (p *Poly) ScalarMul(c *big.Int) *Poly {
	out := ff.NewVector(len(p.Coeffs))
	for i := range p.Coeffs {
		out[i] = ff.Mul(p.Coeffs[i], c)
	}
	return &Poly{Coeffs: out}
}

// Mul returns p*q by schoolbook multiplication. It is used only in tests and
// by the attack tooling; the protocol itself never multiplies polynomials.
func (p *Poly) Mul(q *Poly) *Poly {
	if p.Degree() < 0 || q.Degree() < 0 {
		return Zero(0)
	}
	out := ff.NewVector(len(p.Coeffs) + len(q.Coeffs) - 1)
	t := new(big.Int)
	for i, a := range p.Coeffs {
		if a.Sign() == 0 {
			continue
		}
		for j, b := range q.Coeffs {
			t.Mul(a, b)
			out[i+j].Add(out[i+j], t)
			ff.Reduce(out[i+j])
		}
	}
	return &Poly{Coeffs: out}
}

// LinearCombination returns sum_i scalars[i] * polys[i]. All polynomials
// must have the same length; this is the hot path building Pk(x) from the
// k challenged chunk polynomials, so it works in place over one accumulator
// per output coefficient.
func LinearCombination(polys []*Poly, scalars ff.Vector) (*Poly, error) {
	if len(polys) != len(scalars) {
		return nil, fmt.Errorf("poly: %d polynomials but %d scalars", len(polys), len(scalars))
	}
	if len(polys) == 0 {
		return Zero(0), nil
	}
	width := len(polys[0].Coeffs)
	acc := ff.NewVector(width)
	t := new(big.Int)
	for i, q := range polys {
		if len(q.Coeffs) != width {
			return nil, fmt.Errorf("poly: polynomial %d has %d coefficients, want %d", i, len(q.Coeffs), width)
		}
		c := scalars[i]
		if c.Sign() == 0 {
			continue
		}
		for j, b := range q.Coeffs {
			t.Mul(c, b)
			acc[j].Add(acc[j], t)
		}
	}
	// The products accumulate unreduced (k of them stay below k*n^2), so
	// each output coefficient pays one division instead of one per term.
	for _, a := range acc {
		ff.Reduce(a)
	}
	return &Poly{Coeffs: acc}, nil
}

// DivideByLinear returns the quotient q(x) = (p(x) - p(r)) / (x - r) using
// synthetic (Horner/Ruffini) division, together with the remainder p(r).
// This is Definition 3's Qk(x): the KZG opening witness polynomial.
func (p *Poly) DivideByLinear(r *big.Int) (q *Poly, rem *big.Int) {
	n := len(p.Coeffs)
	if n == 0 {
		return Zero(0), new(big.Int)
	}
	out := make(ff.Vector, n-1)
	carry := new(big.Int).Set(p.Coeffs[n-1])
	for i := n - 2; i >= 0; i-- {
		out[i] = new(big.Int).Set(carry)
		carry = ff.Add(ff.Mul(carry, r), p.Coeffs[i])
	}
	if len(out) == 0 {
		out = ff.NewVector(1)
	}
	return &Poly{Coeffs: out}, carry
}

// Interpolate returns the unique polynomial of degree < len(xs) passing
// through the points (xs[i], ys[i]). The xs must be pairwise distinct.
//
// This is the tool of the Section V-C adversary: observing s evaluations of
// the degree-(s-1) polynomial Pk on the chain fully reconstructs it.
func Interpolate(xs, ys ff.Vector) (*Poly, error) {
	k := len(xs)
	if len(ys) != k {
		return nil, fmt.Errorf("poly: %d abscissae but %d ordinates", k, len(ys))
	}
	// Duplicate abscissae make the system singular; detect them in O(k) by
	// keying the canonical encoding instead of comparing all pairs.
	seen := make(map[string]int, k)
	for i := 0; i < k; i++ {
		key := string(ff.Bytes(xs[i]))
		if j, dup := seen[key]; dup {
			return nil, fmt.Errorf("poly: duplicate interpolation abscissa at %d and %d", j, i)
		}
		seen[key] = i
	}

	result := Zero(k - 1)
	for i := 0; i < k; i++ {
		// Build the i-th Lagrange basis polynomial incrementally.
		basis := New(big.NewInt(1))
		denom := big.NewInt(1)
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			// basis *= (x - xs[j])
			basis = basis.Mul(New(ff.Neg(xs[j]), big.NewInt(1)))
			denom = ff.Mul(denom, ff.Sub(xs[i], xs[j]))
		}
		scale := ff.Mul(ys[i], ff.Inv(denom))
		result = result.Add(basis.ScalarMul(scale))
	}
	return result, nil
}
