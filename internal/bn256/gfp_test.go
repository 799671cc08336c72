package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func randGFp2(t *testing.T) *gfP2 {
	t.Helper()
	x, err := rand.Int(rand.Reader, pBig)
	if err != nil {
		t.Fatal(err)
	}
	y, err := rand.Int(rand.Reader, pBig)
	if err != nil {
		t.Fatal(err)
	}
	return newGFp2().SetBigs(x, y)
}

func randGFp6(t *testing.T) *gfP6 {
	t.Helper()
	return &gfP6{x: *randGFp2(t), y: *randGFp2(t), z: *randGFp2(t)}
}

func randGFp12(t *testing.T) *gfP12 {
	t.Helper()
	return &gfP12{x: *randGFp6(t), y: *randGFp6(t)}
}

func TestGFp2Axioms(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b, c := randGFp2(t), randGFp2(t), randGFp2(t)

		// Commutativity and associativity of multiplication.
		ab := newGFp2().Mul(a, b)
		ba := newGFp2().Mul(b, a)
		if !ab.Equal(ba) {
			t.Fatal("Fp2 mul not commutative")
		}
		abc1 := newGFp2().Mul(ab, c)
		bc := newGFp2().Mul(b, c)
		abc2 := newGFp2().Mul(a, bc)
		if !abc1.Equal(abc2) {
			t.Fatal("Fp2 mul not associative")
		}

		// Distributivity.
		lhs := newGFp2().Add(b, c)
		lhs.Mul(a, lhs)
		rhs := newGFp2().Add(newGFp2().Mul(a, b), newGFp2().Mul(a, c))
		if !lhs.Equal(rhs) {
			t.Fatal("Fp2 mul not distributive")
		}

		// Square consistency.
		sq := newGFp2().Square(a)
		mul := newGFp2().Mul(a, a)
		if !sq.Equal(mul) {
			t.Fatal("Fp2 square != mul")
		}

		// Inverse.
		if !a.IsZero() {
			inv := newGFp2().Invert(a)
			one := newGFp2().Mul(a, inv)
			if !one.IsOne() {
				t.Fatal("Fp2 a * 1/a != 1")
			}
		}

		// MulXi consistency with explicit Mul.
		viaMul := newGFp2().Mul(a, xi)
		viaXi := newGFp2().MulXi(a)
		if !viaMul.Equal(viaXi) {
			t.Fatal("MulXi inconsistent with Mul by xi")
		}
	}
}

func TestGFp6Axioms(t *testing.T) {
	for i := 0; i < 10; i++ {
		a, b, c := randGFp6(t), randGFp6(t), randGFp6(t)

		ab := newGFp6().Mul(a, b)
		ba := newGFp6().Mul(b, a)
		if !ab.Equal(ba) {
			t.Fatal("Fp6 mul not commutative")
		}
		abc1 := newGFp6().Mul(ab, c)
		abc2 := newGFp6().Mul(a, newGFp6().Mul(b, c))
		if !abc1.Equal(abc2) {
			t.Fatal("Fp6 mul not associative")
		}

		if !a.IsZero() {
			inv := newGFp6().Invert(a)
			if !newGFp6().Mul(a, inv).IsOne() {
				t.Fatal("Fp6 a * 1/a != 1")
			}
		}

		// tau^3 = xi: multiply by tau three times equals MulGFP2 by xi.
		t3 := newGFp6().MulTau(a)
		t3.MulTau(t3)
		t3.MulTau(t3)
		viaXi := newGFp6().MulGFP2(a, xi)
		if !t3.Equal(viaXi) {
			t.Fatal("tau^3 != xi in Fp6")
		}
	}
}

func TestGFp12Axioms(t *testing.T) {
	for i := 0; i < 5; i++ {
		a, b := randGFp12(t), randGFp12(t)

		ab := newGFp12().Mul(a, b)
		ba := newGFp12().Mul(b, a)
		if !ab.Equal(ba) {
			t.Fatal("Fp12 mul not commutative")
		}
		if !a.IsZero() {
			inv := newGFp12().Invert(a)
			if !newGFp12().Mul(a, inv).IsOne() {
				t.Fatal("Fp12 a * 1/a != 1")
			}
		}
	}
}

// TestFrobenius checks that the algebraic Frobenius maps agree with raising
// to the p-th power directly, on each level of the tower.
func TestFrobenius(t *testing.T) {
	a2 := randGFp2(t)
	direct := newGFp2().Exp(a2, pBig)
	alg := newGFp2().Conjugate(a2)
	if !direct.Equal(alg) {
		t.Fatal("Fp2 Frobenius (conjugate) != a^p")
	}

	a6 := randGFp6(t)
	d6 := gfp6Exp(a6, pBig)
	alg6 := newGFp6().Frobenius(a6)
	if !d6.Equal(alg6) {
		t.Fatal("Fp6 Frobenius != a^p")
	}
	p2 := new(big.Int).Mul(pBig, pBig)
	d6p2 := gfp6Exp(a6, p2)
	alg6p2 := newGFp6().FrobeniusP2(a6)
	if !d6p2.Equal(alg6p2) {
		t.Fatal("Fp6 FrobeniusP2 != a^(p^2)")
	}

	a12 := randGFp12(t)
	d12 := newGFp12().Exp(a12, pBig)
	alg12 := newGFp12().Frobenius(a12)
	if !d12.Equal(alg12) {
		t.Fatal("Fp12 Frobenius != a^p")
	}
	d12p2 := newGFp12().Exp(a12, p2)
	alg12p2 := newGFp12().FrobeniusP2(a12)
	if !d12p2.Equal(alg12p2) {
		t.Fatal("Fp12 FrobeniusP2 != a^(p^2)")
	}

	p6 := new(big.Int).Mul(p2, p2)
	p6.Mul(p6, p2)
	d12p6 := newGFp12().Exp(a12, p6)
	conj := newGFp12().Conjugate(a12)
	if !d12p6.Equal(conj) {
		t.Fatal("Fp12 conjugate != a^(p^6)")
	}
}

func gfp6Exp(a *gfP6, k *big.Int) *gfP6 {
	sum := newGFp6().SetOne()
	for i := k.BitLen() - 1; i >= 0; i-- {
		sum.Square(sum)
		if k.Bit(i) != 0 {
			sum.Mul(sum, a)
		}
	}
	return sum
}

func TestSqrtFp2(t *testing.T) {
	for i := 0; i < 20; i++ {
		a := randGFp2(t)
		sq := newGFp2().Square(a)
		r := sqrtFp2(sq)
		if r == nil {
			t.Fatal("sqrtFp2 failed on a known square")
		}
		rr := newGFp2().Square(r)
		if !rr.Equal(sq) {
			t.Fatal("sqrtFp2 returned a non-root")
		}
	}
}

func TestQuickFp2MulCommutes(t *testing.T) {
	f := func(ax, ay, bx, by int64) bool {
		a := newGFp2().SetInt64s(ax, ay)
		b := newGFp2().SetInt64s(bx, by)
		ab := newGFp2().Mul(a, b)
		ba := newGFp2().Mul(b, a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
