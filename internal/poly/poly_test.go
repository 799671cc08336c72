package poly

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/bn256"
)

// The math/big reference below is the arithmetic poly ran on before its
// coefficients moved to limbs. It lives only here, as the oracle the limb
// code is checked against.

func bigOf(v []bn256.Scalar) []*big.Int {
	out := make([]*big.Int, len(v))
	for i := range v {
		out[i] = v[i].Big()
	}
	return out
}

func evalBig(coeffs []*big.Int, x *big.Int) *big.Int {
	acc := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, x).Add(acc, coeffs[i]).Mod(acc, bn256.Order)
	}
	return acc
}

func linearCombinationBig(polys [][]*big.Int, scalars []*big.Int) []*big.Int {
	out := make([]*big.Int, len(polys[0]))
	for j := range out {
		out[j] = new(big.Int)
		for i := range polys {
			out[j].Add(out[j], new(big.Int).Mul(scalars[i], polys[i][j]))
		}
		out[j].Mod(out[j], bn256.Order)
	}
	return out
}

func divideByLinearBig(coeffs []*big.Int, r *big.Int) (q []*big.Int, rem *big.Int) {
	n := len(coeffs)
	q = make([]*big.Int, n-1)
	rem = new(big.Int).Set(coeffs[n-1])
	for i := n - 2; i >= 0; i-- {
		q[i] = new(big.Int).Set(rem)
		rem.Mul(rem, r).Add(rem, coeffs[i]).Mod(rem, bn256.Order)
	}
	return q, rem
}

func sameAsBig(got []bn256.Scalar, want []*big.Int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Big().Cmp(want[i]) != 0 {
			return false
		}
	}
	return true
}

func randScalar(t testing.TB) bn256.Scalar {
	t.Helper()
	var s bn256.Scalar
	if err := s.SetRandom(rand.Reader); err != nil {
		t.Fatal(err)
	}
	return s
}

func randScalars(t testing.TB, n int) []bn256.Scalar {
	out := make([]bn256.Scalar, n)
	for i := range out {
		out[i] = randScalar(t)
	}
	return out
}

func randPoly(t testing.TB, deg int) *Poly { return &Poly{Coeffs: randScalars(t, deg+1)} }

func scalar(v int64) bn256.Scalar {
	var s bn256.Scalar
	if v < 0 {
		s.Neg(s.SetUint64(uint64(-v))) // -MinInt64 wraps to its own magnitude
		return s
	}
	s.SetUint64(uint64(v))
	return s
}

func TestEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x^2 at x = 5: 3 + 10 + 25 = 38.
	p := newPoly(scalar(3), scalar(2), scalar(1))
	x := scalar(5)
	if got := p.Eval(&x); got != scalar(38) {
		t.Fatalf("p(5) = %v, want 38", &got)
	}
}

func TestDegree(t *testing.T) {
	if d := zero(5).degree(); d != -1 {
		t.Fatalf("zero polynomial degree = %d, want -1", d)
	}
	p := newPoly(scalar(1), scalar(0), scalar(0))
	if d := p.degree(); d != 0 {
		t.Fatalf("degree = %d, want 0 (trailing zeros)", d)
	}
}

func TestAddEval(t *testing.T) {
	p, q := randPoly(t, 7), randPoly(t, 4)
	x := randScalar(t)
	var want bn256.Scalar
	pv, qv := p.Eval(&x), q.Eval(&x)
	want.Add(&pv, &qv)
	if p.add(q).Eval(&x) != want || q.add(p).Eval(&x) != want {
		t.Fatal("(p+q)(x) != p(x)+q(x)")
	}
}

func TestMulEval(t *testing.T) {
	p, q := randPoly(t, 5), randPoly(t, 3)
	x := randScalar(t)
	var want bn256.Scalar
	pv, qv := p.Eval(&x), q.Eval(&x)
	want.Mul(&pv, &qv)
	if p.mul(q).Eval(&x) != want {
		t.Fatal("(p*q)(x) != p(x)*q(x)")
	}
}

func TestDivideByLinear(t *testing.T) {
	for deg := 0; deg <= 10; deg++ {
		p := randPoly(t, deg)
		r := randScalar(t)
		q, rem := p.DivideByLinear(&r)

		if rem != p.Eval(&r) {
			t.Fatalf("deg %d: remainder != p(r)", deg)
		}
		// Verify p(x) = q(x)*(x-r) + rem at a random point.
		x := randScalar(t)
		var rhs, xr bn256.Scalar
		qx := q.Eval(&x)
		rhs.Mul(&qx, xr.Sub(&x, &r)).Add(&rhs, &rem)
		if p.Eval(&x) != rhs {
			t.Fatalf("deg %d: p != q*(x-r) + rem", deg)
		}
	}
}

func TestDivideByLinearAgainstLongDivision(t *testing.T) {
	// Cross-check synthetic division against reconstructing p from the
	// quotient: q*(x-r) + rem must equal p coefficient-wise.
	p := randPoly(t, 9)
	r := randScalar(t)
	q, rem := p.DivideByLinear(&r)
	var negR bn256.Scalar
	linear := newPoly(*negR.Neg(&r), scalar(1)) // (x - r)
	recon := q.mul(linear).add(newPoly(rem))
	if !recon.equal(p) {
		t.Fatal("synthetic division does not reconstruct the dividend")
	}
}

func TestLinearCombination(t *testing.T) {
	const k, width = 5, 8
	polys := make([]*Poly, k)
	for i := range polys {
		polys[i] = randPoly(t, width-1)
	}
	scalars := randScalars(t, k)
	combo, err := LinearCombination(polys, scalars)
	if err != nil {
		t.Fatal(err)
	}
	x := randScalar(t)
	var want, term bn256.Scalar
	for i := range polys {
		v := polys[i].Eval(&x)
		want.Add(&want, term.Mul(&scalars[i], &v))
	}
	if combo.Eval(&x) != want {
		t.Fatal("linear combination evaluates incorrectly")
	}
}

// TestLinearCombinationCanonical pins each output coefficient to the sum in
// math/big, as a canonical residue, at the paper's k = 300: with full-width
// scalars, with 128-bit ones (a challenge's, which take the narrow product),
// and with every operand at its maximum n-1 (the largest unreduced
// accumulator the single final reduction has to absorb).
func TestLinearCombinationCanonical(t *testing.T) {
	const k, width = 300, 6
	var nMinus1 bn256.Scalar
	nMinus1.Neg(new(bn256.Scalar).SetUint64(1))
	for _, shape := range []string{"full", "128-bit", "maxed"} {
		polys := make([]*Poly, k)
		scalars := randScalars(t, k)
		for i := range polys {
			polys[i] = randPoly(t, width-1)
			switch shape {
			case "128-bit":
				b := scalars[i].Bytes()
				scalars[i].SetBytes(b[16:])
			case "maxed":
				scalars[i] = nMinus1
				for j := range polys[i].Coeffs {
					polys[i].Coeffs[j] = nMinus1
				}
			}
		}
		scalars[7] = bn256.Scalar{} // a skipped term
		combo, err := LinearCombination(polys, scalars)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]*big.Int, k)
		for i := range polys {
			rows[i] = bigOf(polys[i].Coeffs)
		}
		if !sameAsBig(combo.Coeffs, linearCombinationBig(rows, bigOf(scalars))) {
			t.Fatalf("%s: coefficients differ from the math/big sum", shape)
		}
	}
}

// TestAgainstBigReference runs Eval, DivideByLinear and LinearCombination
// against the math/big reference over degrees 0..60, including a
// combination of many full-width (n-1)*(n-1) terms.
func TestAgainstBigReference(t *testing.T) {
	for deg := 0; deg <= 60; deg += 6 {
		p := randPoly(t, deg)
		x := randScalar(t)
		coeffs := bigOf(p.Coeffs)
		if got, want := p.Eval(&x), evalBig(coeffs, x.Big()); got.Big().Cmp(want) != 0 {
			t.Fatalf("deg %d: Eval = %v, want %v", deg, &got, want)
		}
		q, rem := p.DivideByLinear(&x)
		wantQ, wantRem := divideByLinearBig(coeffs, x.Big())
		if rem.Big().Cmp(wantRem) != 0 || (deg > 0 && !sameAsBig(q.Coeffs, wantQ)) {
			t.Fatalf("deg %d: DivideByLinear differs from math/big", deg)
		}
	}

	const k, width = 2000, 4
	var nMinus1 bn256.Scalar
	nMinus1.Neg(new(bn256.Scalar).SetUint64(1))
	polys := make([]*Poly, k)
	scalars := make([]bn256.Scalar, k)
	rows := make([][]*big.Int, k)
	for i := range polys {
		polys[i] = zero(width - 1)
		for j := range polys[i].Coeffs {
			polys[i].Coeffs[j] = nMinus1
		}
		scalars[i] = nMinus1
		rows[i] = bigOf(polys[i].Coeffs)
	}
	combo, err := LinearCombination(polys, scalars)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAsBig(combo.Coeffs, linearCombinationBig(rows, bigOf(scalars))) {
		t.Fatal("sum of full-width (n-1)*(n-1) terms differs from math/big")
	}
}

func TestLinearCombinationErrors(t *testing.T) {
	if _, err := LinearCombination([]*Poly{zero(1)}, nil); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := LinearCombination([]*Poly{zero(1), zero(2)}, []bn256.Scalar{scalar(1), scalar(1)}); err == nil {
		t.Fatal("accepted ragged polynomial widths")
	}
	empty, err := LinearCombination(nil, nil)
	if err != nil || empty.degree() != -1 {
		t.Fatal("empty combination should be the zero polynomial")
	}
}

func TestInterpolate(t *testing.T) {
	p := randPoly(t, 6)
	xs := randScalars(t, 7)
	ys := make([]bn256.Scalar, len(xs))
	for i := range xs {
		ys[i] = p.Eval(&xs[i])
	}
	got, err := Interpolate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !got.equal(p) {
		t.Fatal("interpolation did not recover the polynomial")
	}
}

func TestInterpolateRejectsDuplicates(t *testing.T) {
	xs := []bn256.Scalar{scalar(1), scalar(1)}
	ys := []bn256.Scalar{scalar(2), scalar(3)}
	if _, err := Interpolate(xs, ys); err == nil {
		t.Fatal("accepted duplicate abscissae")
	}
	if _, err := Interpolate(xs, ys[:1]); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

func TestQuickEvalLinearity(t *testing.T) {
	f := func(a, b, xv int64) bool {
		p := newPoly(scalar(a), scalar(b))
		x := scalar(xv)
		want := new(big.Int).Mul(big.NewInt(b), big.NewInt(xv))
		want.Add(want, big.NewInt(a)).Mod(want, bn256.Order)
		return p.Eval(&x).Big().Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// clone returns a deep copy.
func (p *Poly) clone() *Poly { return newPoly(p.Coeffs...) }

// equal reports mathematical equality (ignoring trailing zeros).
func (p *Poly) equal(q *Poly) bool {
	n := max(len(p.Coeffs), len(q.Coeffs))
	for i := 0; i < n; i++ {
		var a, b bn256.Scalar
		if i < len(p.Coeffs) {
			a = p.Coeffs[i]
		}
		if i < len(q.Coeffs) {
			b = q.Coeffs[i]
		}
		if a != b {
			return false
		}
	}
	return true
}
