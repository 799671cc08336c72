package poly

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/ff"
)

func randPoly(t *testing.T, deg int) *Poly {
	t.Helper()
	v, err := ff.RandomVector(rand.Reader, deg+1)
	if err != nil {
		t.Fatal(err)
	}
	return FromVector(v)
}

func TestEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x^2 at x = 5: 3 + 10 + 25 = 38.
	p := New(big.NewInt(3), big.NewInt(2), big.NewInt(1))
	if got := p.Eval(big.NewInt(5)); !ff.Equal(got, ff.New(38)) {
		t.Fatalf("p(5) = %v, want 38", got)
	}
}

func TestDegree(t *testing.T) {
	if d := Zero(5).Degree(); d != -1 {
		t.Fatalf("zero polynomial degree = %d, want -1", d)
	}
	p := New(big.NewInt(1), big.NewInt(0), big.NewInt(0))
	if d := p.Degree(); d != 0 {
		t.Fatalf("degree = %d, want 0 (trailing zeros)", d)
	}
}

func TestAddEval(t *testing.T) {
	p, q := randPoly(t, 7), randPoly(t, 4)
	x, _ := ff.Random(rand.Reader)
	sum := p.Add(q)
	want := ff.Add(p.Eval(x), q.Eval(x))
	if !ff.Equal(sum.Eval(x), want) {
		t.Fatal("(p+q)(x) != p(x)+q(x)")
	}
}

func TestMulEval(t *testing.T) {
	p, q := randPoly(t, 5), randPoly(t, 3)
	x, _ := ff.Random(rand.Reader)
	prod := p.Mul(q)
	want := ff.Mul(p.Eval(x), q.Eval(x))
	if !ff.Equal(prod.Eval(x), want) {
		t.Fatal("(p*q)(x) != p(x)*q(x)")
	}
}

func TestDivideByLinear(t *testing.T) {
	for deg := 0; deg <= 10; deg++ {
		p := randPoly(t, deg)
		r, _ := ff.Random(rand.Reader)
		q, rem := p.DivideByLinear(r)

		if !ff.Equal(rem, p.Eval(r)) {
			t.Fatalf("deg %d: remainder != p(r)", deg)
		}
		// Verify p(x) = q(x)*(x-r) + rem at a random point.
		x, _ := ff.Random(rand.Reader)
		lhs := p.Eval(x)
		rhs := ff.Add(ff.Mul(q.Eval(x), ff.Sub(x, r)), rem)
		if !ff.Equal(lhs, rhs) {
			t.Fatalf("deg %d: p != q*(x-r) + rem", deg)
		}
	}
}

func TestDivideByLinearAgainstLongDivision(t *testing.T) {
	// Cross-check synthetic division against reconstructing p from the
	// quotient: q*(x-r) + rem must equal p coefficient-wise.
	p := randPoly(t, 9)
	r, _ := ff.Random(rand.Reader)
	q, rem := p.DivideByLinear(r)
	linear := New(ff.Neg(r), big.NewInt(1)) // (x - r)
	recon := q.Mul(linear).Add(New(rem))
	if !recon.Equal(p) {
		t.Fatal("synthetic division does not reconstruct the dividend")
	}
}

func TestLinearCombination(t *testing.T) {
	const k, width = 5, 8
	polys := make([]*Poly, k)
	for i := range polys {
		polys[i] = randPoly(t, width-1)
	}
	scalars, _ := ff.RandomVector(rand.Reader, k)
	combo, err := LinearCombination(polys, scalars)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ff.Random(rand.Reader)
	want := new(big.Int)
	for i := range polys {
		want = ff.Add(want, ff.Mul(scalars[i], polys[i].Eval(x)))
	}
	if !ff.Equal(combo.Eval(x), want) {
		t.Fatal("linear combination evaluates incorrectly")
	}
}

// TestLinearCombinationCanonical pins each output coefficient to the
// term-by-term reduced sum, as a canonical residue, at the paper's k = 300
// and with every operand at its maximum n-1 (the largest unreduced
// accumulator the single final reduction has to absorb).
func TestLinearCombinationCanonical(t *testing.T) {
	const k, width = 300, 6
	nMinus1 := new(big.Int).Sub(ff.Modulus(), big.NewInt(1))
	for _, maxed := range []bool{false, true} {
		polys := make([]*Poly, k)
		scalars, _ := ff.RandomVector(rand.Reader, k)
		for i := range polys {
			polys[i] = randPoly(t, width-1)
			if maxed {
				scalars[i] = new(big.Int).Set(nMinus1)
				for j := range polys[i].Coeffs {
					polys[i].Coeffs[j] = new(big.Int).Set(nMinus1)
				}
			}
		}
		scalars[7] = new(big.Int) // a skipped term
		combo, err := LinearCombination(polys, scalars)
		if err != nil {
			t.Fatal(err)
		}
		for j, got := range combo.Coeffs {
			want := new(big.Int)
			for i := range polys {
				want = ff.Add(want, ff.Mul(scalars[i], polys[i].Coeffs[j]))
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("maxed=%v: coefficient %d is %v, want the canonical %v", maxed, j, got, want)
			}
		}
	}
}

func TestLinearCombinationErrors(t *testing.T) {
	if _, err := LinearCombination([]*Poly{Zero(1)}, ff.Vector{}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := LinearCombination([]*Poly{Zero(1), Zero(2)}, ff.Vector{ff.New(1), ff.New(1)}); err == nil {
		t.Fatal("accepted ragged polynomial widths")
	}
	empty, err := LinearCombination(nil, nil)
	if err != nil || empty.Degree() != -1 {
		t.Fatal("empty combination should be the zero polynomial")
	}
}

func TestInterpolate(t *testing.T) {
	p := randPoly(t, 6)
	xs, err := ff.RandomVector(rand.Reader, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Retry on the (negligible) chance of duplicates.
	ys := make(ff.Vector, len(xs))
	for i, x := range xs {
		ys[i] = p.Eval(x)
	}
	got, err := Interpolate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Fatal("interpolation did not recover the polynomial")
	}
}

func TestInterpolateRejectsDuplicates(t *testing.T) {
	xs := ff.Vector{ff.New(1), ff.New(1)}
	ys := ff.Vector{ff.New(2), ff.New(3)}
	if _, err := Interpolate(xs, ys); err == nil {
		t.Fatal("accepted duplicate abscissae")
	}
	if _, err := Interpolate(xs, ys[:1]); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

func TestQuickEvalLinearity(t *testing.T) {
	f := func(a, b, xv int64) bool {
		p := New(big.NewInt(a), big.NewInt(b))
		x := ff.New(xv)
		want := ff.Add(ff.New(a), ff.Mul(ff.New(b), x))
		return ff.Equal(p.Eval(x), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
