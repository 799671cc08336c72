package bn256

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// glvScalars are the scalars the GLV path can get wrong -- the ends of
// [0, n), values the reduction must fold, lambda itself, a single high bit --
// followed by count random ones below 2^256.
func glvScalars(t *testing.T, count int) []*big.Int {
	t.Helper()
	ks := []*big.Int{
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

func TestGLVDecompose(t *testing.T) {
	for _, k := range glvScalars(t, 1000) {
		k1, k2 := glvDecompose(k)
		if k1.BitLen() > 128 || k2.BitLen() > 128 {
			t.Fatalf("k=%v: halves of %d and %d bits", k, k1.BitLen(), k2.BitLen())
		}
		got := new(big.Int).Mul(k2, glvLambda)
		got.Add(got, k1).Sub(got, k)
		if got.Mod(got, Order).Sign() != 0 {
			t.Fatalf("k=%v: k1 + k2*lambda = k + %v mod n", k, got)
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
