package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// oldHasOrderN is the subgroup check hasOrderN replaced: a^n == 1 by the
// generic ladder. It stays here as the reference.
func oldHasOrderN(a *gfP12) bool { return newGFp12().Exp(a, Order).IsOne() }

// easyPart returns f^((p^6-1)(p^2+1)): in the cyclotomic subgroup, and for a
// random f of cofactor order, outside GT.
func easyPart(f *gfP12) *gfP12 {
	t := newGFp12().Conjugate(f)
	t.Mul(t, newGFp12().Invert(f))
	return t.Mul(t, newGFp12().FrobeniusP2(t))
}

// TestCyclotomicArithmetic pins CyclotomicSquare to Square and CyclotomicExp
// to the plain ladder on 100 pairing outputs, for the exponents production
// uses (u, n, 128-bit batch weights, full-width scalars) and the edges.
func TestCyclotomicArithmetic(t *testing.T) {
	g1s, g2s, scalars := randomPairs(t, 100)
	nMinus1 := new(big.Int).Sub(Order, bigOne)
	for i := range g1s {
		a := Pair(g1s[i], g2s[i]).p
		if !a.inCyclotomic() || !a.hasOrderN() {
			t.Fatalf("pairing output %d rejected by the membership tests", i)
		}
		if !newGFp12().CyclotomicSquare(a).Equal(newGFp12().Square(a)) {
			t.Fatalf("pairing output %d: cyclotomic square disagrees with Square", i)
		}
		aliased := newGFp12().Set(a)
		if !aliased.CyclotomicSquare(aliased).Equal(newGFp12().Square(a)) {
			t.Fatalf("pairing output %d: aliased cyclotomic square is wrong", i)
		}
		weight := new(big.Int).Rsh(scalars[i], 126)
		for _, k := range []*big.Int{new(big.Int), bigOne, big.NewInt(8), big.NewInt(9), u, Order, nMinus1, weight, scalars[i]} {
			if !newGFp12().CyclotomicExp(a, k).Equal(newGFp12().Exp(a, k)) {
				t.Fatalf("pairing output %d: windowed exponentiation disagrees with the ladder for k=%v", i, k)
			}
		}
	}
}

// TestGTScalarMultUnreduced pins the hazard the cyclotomic ladder brings: a
// raw MillerLoop value is typed GT but is not in the cyclotomic subgroup, and
// ScalarMult must still return what the square-and-multiply ladder does.
func TestGTScalarMultUnreduced(t *testing.T) {
	g1s, g2s, scalars := randomPairs(t, 1)
	raw := MillerLoop(g1s[0], g2s[0])
	if raw.p.inCyclotomic() {
		t.Fatal("raw Miller value is in the cyclotomic subgroup; the generic path is not exercised")
	}
	for _, k := range []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-5),
		new(big.Int).Sub(Order, bigOne), new(big.Int).Add(Order, big.NewInt(7)), scalars[0],
	} {
		want := newGFp12().Exp(raw.p, new(big.Int).Mod(k, Order))
		if got := new(GT).ScalarMult(raw, k); !got.p.Equal(want) {
			t.Errorf("k=%v: ScalarMult of an unreduced value disagrees with the ladder", k)
		}
	}
}

// TestGTSubgroupCheck covers what the order-n check must reject: zero, a raw
// Miller value (outside the cyclotomic subgroup) and a cyclotomic element of
// cofactor order, each also through the wire decoders.
func TestGTSubgroupCheck(t *testing.T) {
	g1s, g2s, _ := randomPairs(t, 1)
	raw := MillerLoop(g1s[0], g2s[0]).p
	cofactor := easyPart(randGFp12(t))
	if !cofactor.inCyclotomic() {
		t.Fatal("easy part of a random element is not in the cyclotomic subgroup")
	}
	for name, a := range map[string]*gfP12{"zero": newGFp12(), "raw Miller value": raw, "cofactor-order element": cofactor} {
		if oldHasOrderN(a) {
			t.Fatalf("%s has order n; the test element is useless", name)
		}
		if a.hasOrderN() {
			t.Errorf("%s accepted as a GT element", name)
		}
		if err := new(GT).Unmarshal((&GT{p: a}).Marshal()); err == nil {
			t.Errorf("Unmarshal accepted %s", name)
		}
	}
	enc, err := (&GT{p: cofactor}).MarshalCompressed()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(GT).UnmarshalCompressed(enc); err == nil {
		t.Error("UnmarshalCompressed accepted a cofactor-order element")
	}
	if !newGFp12().SetOne().hasOrderN() {
		t.Error("the identity rejected")
	}
}

func BenchmarkGTScalarMult(b *testing.B) {
	g := Pair(GenG1(), GenG2())
	k, _ := rand.Int(rand.Reader, Order)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(GT).ScalarMult(g, k)
	}
}

func BenchmarkGTUnmarshalCompressed(b *testing.B) {
	enc, err := Pair(GenG1(), GenG2()).MarshalCompressed()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := new(GT).UnmarshalCompressed(enc); err != nil {
			b.Fatal(err)
		}
	}
}
