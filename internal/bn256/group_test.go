package bn256

import (
	"bytes"
	"math/big"
	"sync"
	"testing"
)

// TestZeroValueOperands drives every method that takes a group element with
// the zero value in each operand position: the zero G1, G2 and GT are the
// identity, not a nil dereference.
func TestZeroValueOperands(t *testing.T) {
	k := big.NewInt(7)
	g1, g2 := GenG1(), GenG2()
	gt := Pair(g1, g2)

	g1Cases := []struct {
		name string
		got  func() *G1
		want *G1
	}{
		{"Add(g, 0)", func() *G1 { return new(G1).Add(g1, &G1{}) }, g1},
		{"Add(0, g)", func() *G1 { return new(G1).Add(&G1{}, g1) }, g1},
		{"Add(0, 0)", func() *G1 { return new(G1).Add(&G1{}, &G1{}) }, &G1{}},
		{"ScalarMult(0, k)", func() *G1 { return new(G1).ScalarMult(&G1{}, k) }, &G1{}},
		{"Neg(0)", func() *G1 { return new(G1).Neg(&G1{}) }, &G1{}},
		{"Set(0)", func() *G1 { return GenG1().Set(&G1{}) }, &G1{}},
		{"MultiScalarMult({0, g})", func() *G1 {
			return new(G1).MultiScalarMult([]*G1{{}, g1}, scalarsFromBig([]*big.Int{k, big.NewInt(1)}))
		}, g1},
		{"MultiScalarMultParallel({0})", func() *G1 {
			return new(G1).MultiScalarMultParallel([]*G1{{}}, []*big.Int{k}, 2)
		}, &G1{}},
	}
	for _, c := range g1Cases {
		if got := c.got(); !got.Equal(c.want) {
			t.Errorf("G1 %s: wrong result", c.name)
		}
	}
	if !(&G1{}).Equal(new(G1).SetInfinity()) || !new(G1).SetInfinity().Equal(&G1{}) {
		t.Error("G1 Equal: zero value is not the identity")
	}

	g2Cases := []struct {
		name string
		got  func() *G2
		want *G2
	}{
		{"Add(g, 0)", func() *G2 { return new(G2).Add(g2, &G2{}) }, g2},
		{"Add(0, g)", func() *G2 { return new(G2).Add(&G2{}, g2) }, g2},
		{"Add(0, 0)", func() *G2 { return new(G2).Add(&G2{}, &G2{}) }, &G2{}},
		{"ScalarMult(0, k)", func() *G2 { return new(G2).ScalarMult(&G2{}, k) }, &G2{}},
		{"Neg(0)", func() *G2 { return new(G2).Neg(&G2{}) }, &G2{}},
		{"Set(0)", func() *G2 { return GenG2().Set(&G2{}) }, &G2{}},
	}
	for _, c := range g2Cases {
		if got := c.got(); !got.Equal(c.want) {
			t.Errorf("G2 %s: wrong result", c.name)
		}
	}
	if !(&G2{}).Equal(new(G2).SetInfinity()) {
		t.Error("G2 Equal: zero value is not the identity")
	}

	gtCases := []struct {
		name string
		got  func() *GT
		want *GT
	}{
		{"Add(g, 0)", func() *GT { return new(GT).Add(gt, &GT{}) }, gt},
		{"Add(0, g)", func() *GT { return new(GT).Add(&GT{}, gt) }, gt},
		{"Add(0, 0)", func() *GT { return new(GT).Add(&GT{}, &GT{}) }, &GT{}},
		{"ScalarMult(0, k)", func() *GT { return new(GT).ScalarMult(&GT{}, k) }, &GT{}},
		{"Neg(0)", func() *GT { return new(GT).Neg(&GT{}) }, &GT{}},
		{"Set(0)", func() *GT { return Pair(g1, g2).Set(&GT{}) }, &GT{}},
		{"Pair(0, g)", func() *GT { return Pair(&G1{}, g2) }, &GT{}},
		{"Pair(g, 0)", func() *GT { return Pair(g1, &G2{}) }, &GT{}},
		{"MillerLoop(0, 0)", func() *GT { return MillerLoop(&G1{}, &G2{}) }, &GT{}},
		{"MillerBatch({0}, {g})", func() *GT { return MillerBatch([]*G1{{}}, []*G2{g2}, 1) }, &GT{}},
		{"FinalExponentiate(0)", func() *GT { return FinalExponentiate(&GT{}) }, &GT{}},
	}
	for _, c := range gtCases {
		if got := c.got(); !got.Equal(c.want) {
			t.Errorf("GT %s: wrong result", c.name)
		}
	}
	if !(&GT{}).Equal(new(GT).SetOne()) {
		t.Error("GT Equal: zero value is not the identity")
	}
	if !PairingCheck([]*G1{{}, g1}, []*G2{g2, {}}) {
		t.Error("PairingCheck: pairs with a zero-value side are not trivial")
	}
}

// TestZeroValueOperandsShared: operands are read, never written, so one zero
// value may be an operand on any number of goroutines at once. Under -race
// this is the test that fails if a method materializes an operand the way
// ensure materializes a receiver; without -race it still checks that the
// shared values come back untouched.
func TestZeroValueOperandsShared(t *testing.T) {
	k := big.NewInt(7)
	g1, g2 := GenG1(), GenG2()
	gt := Pair(g1, g2)
	var z1 G1
	var z2 G2
	var zt GT
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := new(G1).Add(g1, &z1).Equal(g1) && new(G1).Neg(&z1).Equal(&z1) &&
				new(G1).Set(&z1).isInfinity() && new(G1).ScalarMult(&z1, k).isInfinity() &&
				new(G1).MultiScalarMult([]*G1{&z1, g1}, scalarsFromBig([]*big.Int{k, k})).Equal(new(G1).ScalarMult(g1, k)) &&
				len(z1.Marshal()) == g1UncompressedSize
			ok = ok && new(G2).Add(g2, &z2).Equal(g2) && new(G2).Neg(&z2).Equal(&z2) &&
				new(G2).Set(&z2).isInfinity() && new(G2).ScalarMult(&z2, k).isInfinity()
			ok = ok && new(GT).Add(gt, &zt).Equal(gt) && new(GT).Neg(&zt).Equal(&zt) &&
				new(GT).Set(&zt).IsOne() && new(GT).ScalarMult(&zt, k).IsOne() &&
				len(zt.Marshal()) == gtUncompressedSize
			ok = ok && Pair(&z1, g2).IsOne() && MillerLoop(g1, &z2).IsOne() &&
				MillerBatch([]*G1{&z1, g1}, []*G2{g2, &z2}, 2).IsOne() &&
				PairingCheck([]*G1{&z1}, []*G2{&z2}) && FinalExponentiate(&zt).IsOne()
			if !ok {
				t.Error("a zero-value operand is not the identity")
			}
		}()
	}
	wg.Wait()
	if z1.p != nil || z2.p != nil || zt.p != nil {
		t.Error("a zero-value operand was materialized")
	}
}

// TestScalarConventionsAgree holds every scalar multiplication in the
// package to one meaning of a scalar outside [0, n): its residue mod n.
func TestScalarConventionsAgree(t *testing.T) {
	g1, g2 := HashToG1([]byte("scalar conventions")), new(G2).ScalarBaseMult(big.NewInt(11))
	gt := Pair(g1, g2)
	scalars := []*big.Int{
		big.NewInt(-5),
		big.NewInt(0),
		new(big.Int).Sub(Order, big.NewInt(1)),
		new(big.Int).Set(Order),
		new(big.Int).Add(Order, big.NewInt(7)),
	}
	for _, k := range scalars {
		r := new(big.Int).Mod(k, Order)

		want1 := new(G1).ScalarMult(g1, r)
		if !new(G1).ScalarMult(g1, k).Equal(want1) {
			t.Errorf("k=%v: G1.ScalarMult is not the residue's multiple", k)
		}
		for _, workers := range []int{1, 2} {
			msm := new(G1).MultiScalarMultParallel([]*G1{g1}, []*big.Int{k}, workers)
			if !msm.Equal(want1) {
				t.Errorf("k=%v workers=%d: MultiScalarMult disagrees with G1.ScalarMult", k, workers)
			}
		}
		if !new(G1).ScalarBaseMult(k).Equal(new(G1).ScalarMult(GenG1(), r)) {
			t.Errorf("k=%v: G1.ScalarBaseMult disagrees with G1.ScalarMult", k)
		}

		want2 := new(G2).ScalarMult(g2, r)
		if !new(G2).ScalarMult(g2, k).Equal(want2) {
			t.Errorf("k=%v: G2.ScalarMult is not the residue's multiple", k)
		}
		if !new(G2).ScalarBaseMult(k).Equal(new(G2).ScalarMult(GenG2(), r)) {
			t.Errorf("k=%v: G2.ScalarBaseMult disagrees with G2.ScalarMult", k)
		}

		// Bilinearity ties GT's convention to the curves'.
		got := new(GT).ScalarMult(gt, k)
		if !got.Equal(Pair(want1, g2)) || !got.Equal(Pair(g1, want2)) {
			t.Errorf("k=%v: GT.ScalarMult disagrees with the pairing of the G1/G2 multiple", k)
		}
	}

	// The sign itself: (-5)x = -(5x) in all three groups.
	five, minusFive := big.NewInt(5), big.NewInt(-5)
	if !new(G1).ScalarMult(g1, minusFive).Equal(new(G1).Neg(new(G1).ScalarMult(g1, five))) {
		t.Error("G1: (-5)P != -(5P)")
	}
	if !new(G2).ScalarMult(g2, minusFive).Equal(new(G2).Neg(new(G2).ScalarMult(g2, five))) {
		t.Error("G2: (-5)Q != -(5Q)")
	}
	if !new(GT).ScalarMult(gt, minusFive).Equal(new(GT).Neg(new(GT).ScalarMult(gt, five))) {
		t.Error("GT: a^-5 != (a^5)^-1")
	}
}

// TestNormalizeG2: the two G2 points of a key come back affine inside and
// unchanged outside, infinity and the zero value included.
func TestNormalizeG2(t *testing.T) {
	points := []*G2{
		new(G2).ScalarBaseMult(big.NewInt(1<<20 + 5)),
		{},
		new(G2).SetInfinity(),
		GenG2(),
	}
	var want [][]byte
	for _, p := range points {
		want = append(want, p.Marshal())
	}
	if points[0].p.z.IsOne() {
		t.Fatal("no Jacobian point among the inputs")
	}
	NormalizeG2(points)
	for i, p := range points {
		if !bytes.Equal(p.Marshal(), want[i]) {
			t.Errorf("point %d changed value", i)
		}
		if p.p != nil && !p.p.IsInfinity() && !p.p.z.IsOne() {
			t.Errorf("point %d is still Jacobian", i)
		}
	}
	NormalizeG2(nil)
}
