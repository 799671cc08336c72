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

// gtProduct is the reference for GT.MultiScalarMult: the product of the
// ScalarMults, one element at a time.
func gtProduct(as []*GT, ks []*big.Int) *GT {
	want := new(GT).SetOne()
	for i := range as {
		want.Add(want, new(GT).ScalarMult(as[i], ks[i]))
	}
	return want
}

// TestGTMultiScalarMult holds the shared-squarings product to the product of
// ScalarMults on the shapes a batch verifier sends it and on the edges: no
// elements, one, zero and out-of-range exponents, the same element twice and
// against its inverse, a zero-valued GT, a raw MillerLoop value (outside the
// cyclotomic subgroup) among reduced ones, and the receiver as an input.
func TestGTMultiScalarMult(t *testing.T) {
	g1s, g2s, scalars := randomPairs(t, 6)
	gts := make([]*GT, len(g1s))
	weights := make([]*big.Int, len(g1s))
	for i := range gts {
		gts[i] = Pair(g1s[i], g2s[i])
		weights[i] = new(big.Int).Rsh(scalars[i], 126)
	}
	raw := MillerLoop(g1s[0], g2s[0])
	if raw.p.inCyclotomic() {
		t.Fatal("raw Miller value is in the cyclotomic subgroup; the generic path is not exercised")
	}
	a, b := gts[0], gts[1]
	big7 := big.NewInt(7)
	for _, c := range []struct {
		name string
		as   []*GT
		ks   []*big.Int
	}{
		{"no elements", nil, nil},
		{"one element", []*GT{a}, []*big.Int{scalars[0]}},
		{"batch weights", gts, weights},
		{"full-width exponents", gts, scalars},
		{"zero exponent", []*GT{a, b}, []*big.Int{new(big.Int), weights[1]}},
		{"all exponents zero", []*GT{a, b}, []*big.Int{new(big.Int), new(big.Int)}},
		{"exponents n-1, n, n+7, -5, 2^300", []*GT{a, b, gts[2], gts[3], gts[4]}, []*big.Int{
			new(big.Int).Sub(Order, bigOne), Order, new(big.Int).Add(Order, big7), big.NewInt(-5), new(big.Int).Lsh(bigOne, 300)}},
		{"repeated element", []*GT{a, b, a}, []*big.Int{weights[0], weights[1], weights[2]}},
		{"element and its inverse", []*GT{a, new(GT).Neg(a)}, []*big.Int{weights[0], weights[0]}},
		{"zero-valued GT", []*GT{a, {}}, []*big.Int{weights[0], weights[1]}},
		{"raw Miller value among reduced ones", []*GT{a, raw, b}, []*big.Int{weights[0], new(big.Int).Add(Order, big7), weights[1]}},
		{"raw Miller values only", []*GT{raw, raw}, []*big.Int{big7, big.NewInt(-5)}},
	} {
		want := gtProduct(c.as, c.ks)
		if got := new(GT).MultiScalarMult(c.as, scalarsFromBig(c.ks)); !got.Equal(want) {
			t.Errorf("%s: MultiScalarMult disagrees with the product of ScalarMults", c.name)
		}
	}

	// The receiver may be an input, and the inputs come back unchanged.
	recv, keep := new(GT).Set(a), new(GT).Set(b)
	want := gtProduct([]*GT{a, b}, weights[:2])
	if recv.MultiScalarMult([]*GT{recv, keep}, scalarsFromBig(weights[:2])); !recv.Equal(want) {
		t.Error("MultiScalarMult into one of its inputs is wrong")
	}
	if !keep.Equal(b) {
		t.Error("MultiScalarMult wrote to an input")
	}
}

// TestGTSubgroupCheck covers what the order-n check must reject: zero, a raw
// Miller value (outside the cyclotomic subgroup), a cyclotomic element of
// cofactor order, its n-th power c (of order prime to n) and g*c for
// g = e(g1, g2) -- the element the Frobenius split of GT.ScalarMult would
// silently get wrong -- each also through the wire decoders.
func TestGTSubgroupCheck(t *testing.T) {
	g1s, g2s, _ := randomPairs(t, 1)
	raw := MillerLoop(g1s[0], g2s[0]).p
	cofactor := easyPart(randGFp12(t))
	if !cofactor.inCyclotomic() {
		t.Fatal("easy part of a random element is not in the cyclotomic subgroup")
	}
	pure := newGFp12().Exp(cofactor, Order)
	mixed := newGFp12().Mul(Pair(GenG1(), GenG2()).p, pure)
	if pure.IsOne() || !pure.inCyclotomic() || !mixed.inCyclotomic() {
		t.Fatal("n-th power of a cofactor-order element is trivial or left the cyclotomic subgroup")
	}
	for _, c := range []struct {
		name  string
		a     *gfP12
		torus bool // of norm 1, so it has a compressed encoding
	}{
		{"zero", newGFp12(), false},
		{"raw Miller value", raw, false},
		{"cofactor-order element", cofactor, true},
		{"its n-th power", pure, true},
		{"e(g1, g2) times it", mixed, true},
	} {
		if oldHasOrderN(c.a) {
			t.Fatalf("%s has order n; the test element is useless", c.name)
		}
		if c.a.hasOrderN() {
			t.Errorf("%s accepted as a GT element", c.name)
		}
		if err := new(GT).Unmarshal((&GT{p: c.a}).Marshal()); err == nil {
			t.Errorf("Unmarshal accepted %s", c.name)
		}
		if !c.torus {
			continue
		}
		enc, err := (&GT{p: c.a}).MarshalCompressed()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(GT).UnmarshalCompressed(enc); err == nil {
			t.Errorf("UnmarshalCompressed accepted %s", c.name)
		}
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

// BenchmarkGTMultiScalarMult24 is the R-commitment product of a 24-proof
// block: 24 elements under 128-bit weights, against 24 ScalarMults.
func BenchmarkGTMultiScalarMult24(b *testing.B) {
	g1s, g2s, scalars := randomPairs(b, 24)
	gts := make([]*GT, len(g1s))
	for i := range gts {
		gts[i] = Pair(g1s[i], g2s[i])
		scalars[i].Rsh(scalars[i], 126)
	}
	weights := scalarsFromBig(scalars)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(GT).MultiScalarMult(gts, weights)
	}
}

var gfp12Sink gfP12

// BenchmarkGfp12MulChain multiplies an accumulator by 64 distinct GT elements
// in turn. Every product has new operands, so the branch predictor cannot
// learn the outcomes of the base field's reductions from a repeating input,
// as it does in a loop over fixed values.
func BenchmarkGfp12MulChain(b *testing.B) {
	g1s, g2s, _ := randomPairs(b, 64)
	t := make([]*gfP12, len(g1s))
	for i := range t {
		t[i] = Pair(g1s[i], g2s[i]).p
	}
	acc := *t[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Mul(&acc, t[i%len(t)])
	}
	gfp12Sink = acc
}

// BenchmarkCyclotomicSquareChain squares a GT element in place, so each call
// squares a new value.
func BenchmarkCyclotomicSquareChain(b *testing.B) {
	acc := *Pair(GenG1(), GenG2()).p
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.CyclotomicSquare(&acc)
	}
	gfp12Sink = acc
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

// TestCyclotomicCofactorSmallFactor pins why GT membership is tested proof
// by proof and not batched over a block. A batched test on prod_i R_i^rho_i
// is sound only up to the smallest prime factor of the cyclotomic cofactor
// h = (p^4 - p^2 + 1)/n: an R_i with a component of prime order l | h
// slips through whenever l divides its weight, with probability about 1/l.
// For this curve l = 493 356 762 637 (about 2^38.8) divides h, so a batch
// would miss with probability about 2^-38.8, not 2^-128, and hasOrderN stays
// per element.
func TestCyclotomicCofactorSmallFactor(t *testing.T) {
	p2 := new(big.Int).Mul(P, P)
	phi12 := new(big.Int).Mul(p2, p2)
	phi12.Sub(phi12, p2).Add(phi12, bigOne)
	h, rem := new(big.Int).QuoRem(phi12, Order, new(big.Int))
	if rem.Sign() != 0 {
		t.Fatal("n does not divide p^4 - p^2 + 1")
	}
	l := big.NewInt(493356762637)
	if !l.ProbablyPrime(32) {
		t.Fatalf("%v is not prime", l)
	}
	if new(big.Int).Mod(h, l).Sign() != 0 {
		t.Fatalf("%v does not divide the cyclotomic cofactor", l)
	}
}
