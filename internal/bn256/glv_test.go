package bn256

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// glvScalars are the scalars the GLV path can get wrong -- the ends of
// [0, n), values the reduction must fold, lambda itself, a single high bit,
// both sides of 2^128 where the decomposition changes rule --
// followed by count random ones below 2^256.
func glvScalars(t *testing.T, count int) []*big.Int {
	t.Helper()
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	ks := []*big.Int{
		new(big.Int).Lsh(big.NewInt(1), 64),
		new(big.Int).Sub(two128, big.NewInt(1)),
		two128,
		new(big.Int).Add(two128, big.NewInt(1)),
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Set(Order),
		new(big.Int).Add(Order, big.NewInt(7)),
		big.NewInt(-5),
		new(big.Int).Set(glvLambda),
		new(big.Int).Lsh(big.NewInt(1), 253),
	}
	bound := new(big.Int).Lsh(big.NewInt(1), 256)
	for i := 0; i < count; i++ {
		k, err := rand.Int(rand.Reader, bound)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	return ks
}

// glvDecomposeBig is the decomposition on big.Int with two exact divisions
// by n, and (k, 0) for k mod n below 2^128: the reference the limb version is
// held to.
func glvDecomposeBig(k *big.Int) (k1, k2 *big.Int) {
	halfOrder := new(big.Int).Rsh(Order, 1)
	k1 = new(big.Int).Mod(k, Order)
	if k1.BitLen() <= 128 {
		return k1, new(big.Int)
	}
	// (k, 0) = (k*b2/n)*v1 + (k*a2/n)*v2 over the rationals.
	c1 := new(big.Int).Mul(k1, glvB2)
	c1.Add(c1, halfOrder).Div(c1, Order)
	c2 := new(big.Int).Mul(k1, glvA2)
	c2.Add(c2, halfOrder).Div(c2, Order)

	t := new(big.Int)
	k1.Sub(k1, t.Mul(c1, glvA1)).Sub(k1, t.Mul(c2, glvA2))
	k2 = new(big.Int).Mul(c1, glvA2)
	k2.Sub(k2, t.Mul(c2, glvB2))
	return k1, k2
}

// signedLimbs is a decomposition's part, magnitude and sign, as a big.Int.
func signedLimbs(mag [2]uint64, neg bool) *big.Int {
	v := new(big.Int).SetUint64(mag[1])
	v.Lsh(v, 64).Add(v, new(big.Int).SetUint64(mag[0]))
	if neg {
		v.Neg(v)
	}
	return v
}

// TestGLVDecompose: the limb decomposition satisfies k1 + k2*lambda = k mod
// n with both halves below 2^128 (what their type holds; Babai rounding's
// bound of 127 bits is checked too, for k mod n of 2^128 and above), and
// agrees with the big.Int one, on the scalars at the ends of the range, at
// 2^128, around lambda, on 10^4 random ones and 10^3 below 2^128.
// (n-1)/2 comes last: k*b2/n is within 2^-127 of a half-integer there, closer
// than the multipliers resolve, so it is the one input where the limb version
// may round to the other neighbour, and only the first two properties hold.
func TestGLVDecompose(t *testing.T) {
	ks := glvScalars(t, 10000)
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	for i := 0; i < 1000; i++ {
		k, err := rand.Int(rand.Reader, two128)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	ks = append(ks, new(big.Int).Sub(Order, glvLambda), new(big.Int).Rsh(Order, 1))
	tie := len(ks) - 1
	for i, k := range ks {
		limbs := scalarFromBig(k)
		m1, m2, neg1, neg2 := glvDecompose(&limbs)
		k1, k2 := signedLimbs(m1, neg1), signedLimbs(m2, neg2)
		bound := 127
		if new(big.Int).Mod(k, Order).Cmp(two128) < 0 {
			bound = 128
		}
		if k1.BitLen() > bound || k2.BitLen() > bound {
			t.Fatalf("k=%v: halves of %d and %d bits", k, k1.BitLen(), k2.BitLen())
		}
		got := new(big.Int).Mul(k2, glvLambda)
		got.Add(got, k1).Sub(got, k)
		if got.Mod(got, Order).Sign() != 0 {
			t.Fatalf("k=%v: k1 + k2*lambda = k + %v mod n", k, got)
		}
		if w1, w2 := glvDecomposeBig(k); i != tie && (w1.Cmp(k1) != 0 || w2.Cmp(k2) != 0) {
			t.Fatalf("k=%v: limbs give (%v, %v), big.Int (%v, %v)", k, k1, k2, w1, w2)
		}
	}
}

// TestScalarFromBig: the entry reduction agrees with big.Int's Mod on
// negative, oversized and boundary values.
func TestScalarFromBig(t *testing.T) {
	ks := glvScalars(t, 200)
	for _, shift := range []uint{255, 256, 257, 300} {
		v := new(big.Int).Lsh(big.NewInt(1), shift)
		ks = append(ks, v, new(big.Int).Sub(v, big.NewInt(1)), new(big.Int).Neg(v))
	}
	for _, k := range ks {
		want := limbsFromBig(new(big.Int).Mod(k, Order))
		if got := scalarFromBig(k); got != want {
			t.Fatalf("k=%v: scalarFromBig = %x, want %x", k, got, want)
		}
	}
}

// TestLadderWitnessesOrder pins the plain ladder, the only scalar
// multiplication on G1 that does not reduce mod n and so the one the order
// checks (initGenerators, TestHashToG1) and the differential tests below
// rest on.
func TestLadderWitnessesOrder(t *testing.T) {
	p := HashToG1([]byte("ladder")).p
	nMinus1 := new(big.Int).Sub(Order, big.NewInt(1))
	if !newCurvePoint().Mul(p, nMinus1).Equal(newCurvePoint().Neg(p)) {
		t.Error("[n-1]P != -P")
	}
	if !newCurvePoint().Mul(p, Order).IsInfinity() {
		t.Error("[n]P is not infinity")
	}
	if newCurvePoint().Mul(p, new(big.Int).Add(Order, big.NewInt(1))).IsInfinity() {
		t.Error("[n+1]P is infinity: the ladder reduced its scalar")
	}
}

func TestEndomorphismIsLambda(t *testing.T) {
	for i := 0; i < 100; i++ {
		p := HashToG1([]byte(fmt.Sprintf("phi %d", i))).p
		phi := newCurvePoint().Set(p)
		gfpMul(&phi.x, &phi.x, &glvBeta)
		if !phi.IsOnCurve() || !phi.Equal(newCurvePoint().Mul(p, glvLambda)) {
			t.Fatalf("point %d: (beta*x, y) != [lambda]P", i)
		}
	}
}

// TestScalarMultMatchesLadder is the differential test of G1.ScalarMult
// against the plain ladder on the residue.
func TestScalarMultMatchesLadder(t *testing.T) {
	affine := HashToG1([]byte("glv"))
	jacobian := new(G1).Add(affine, GenG1()) // z != 1
	if jacobian.p.z.IsOne() {
		t.Fatal("sum of two affine points came out affine")
	}
	points := map[string]*G1{
		"affine":     affine,
		"jacobian":   jacobian,
		"infinity":   new(G1).SetInfinity(),
		"zero value": {},
	}
	for name, p := range points {
		for _, k := range glvScalars(t, 50) {
			want := newCurvePoint().SetInfinity()
			if p.p != nil {
				want.Mul(p.p, new(big.Int).Mod(k, Order))
			}
			if got := new(G1).ScalarMult(p, k); !got.p.Equal(want) {
				t.Fatalf("%s, k=%v: ScalarMult disagrees with the ladder", name, k)
			}
			alias := new(G1).Set(p)
			if alias.ScalarMult(alias, k); !alias.p.Equal(want) {
				t.Fatalf("%s, k=%v: ScalarMult(e, e, k) disagrees with the ladder", name, k)
			}
		}
	}
}
