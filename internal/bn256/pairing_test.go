package bn256

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"testing"
)

func TestGeneratorsValid(t *testing.T) {
	if !g1Gen.IsOnCurve() {
		t.Fatal("g1 generator off curve")
	}
	if !g2Gen.IsOnCurve() {
		t.Fatal("g2 generator off twist")
	}
	if !newTwistPoint().Mul(g2Gen, Order).IsInfinity() {
		t.Fatal("g2 generator has wrong order")
	}
}

func TestPairNonDegenerate(t *testing.T) {
	g1 := new(G1).ScalarBaseMult(big.NewInt(1))
	g2 := new(G2).ScalarBaseMult(big.NewInt(1))
	e := Pair(g1, g2)
	if e.IsOne() {
		t.Fatal("e(g1, g2) = 1: pairing is degenerate")
	}
	// e(g1, g2)^n must be 1.
	if !new(GT).ScalarMult(e, Order).IsOne() {
		t.Fatal("e(g1, g2)^n != 1")
	}
}

func TestPairBilinear(t *testing.T) {
	for i := 0; i < 3; i++ {
		a, err := rand.Int(rand.Reader, Order)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rand.Int(rand.Reader, Order)
		if err != nil {
			t.Fatal(err)
		}

		p := new(G1).ScalarBaseMult(a)
		q := new(G2).ScalarBaseMult(b)
		e1 := Pair(p, q)

		g1 := new(G1).ScalarBaseMult(big.NewInt(1))
		g2 := new(G2).ScalarBaseMult(big.NewInt(1))
		ab := new(big.Int).Mul(a, b)
		ab.Mod(ab, Order)
		e2 := new(GT).ScalarMult(Pair(g1, g2), ab)

		if !e1.Equal(e2) {
			t.Fatalf("bilinearity failed: e(aG, bH) != e(G, H)^(ab) (a=%v b=%v)", a, b)
		}
	}
}

func TestPairAdditivity(t *testing.T) {
	a, _ := rand.Int(rand.Reader, Order)
	b, _ := rand.Int(rand.Reader, Order)
	pa := new(G1).ScalarBaseMult(a)
	pb := new(G1).ScalarBaseMult(b)
	q := new(G2).ScalarBaseMult(big.NewInt(7))

	sum := new(G1).Add(pa, pb)
	e1 := Pair(sum, q)
	e2 := new(GT).Add(Pair(pa, q), Pair(pb, q))
	if !e1.Equal(e2) {
		t.Fatal("e(A+B, Q) != e(A,Q)*e(B,Q)")
	}
}

func TestPairingCheck(t *testing.T) {
	a, _ := rand.Int(rand.Reader, Order)
	p := new(G1).ScalarBaseMult(a)
	q := new(G2).ScalarBaseMult(big.NewInt(1))
	np := new(G1).Neg(p)
	// e(P, Q) * e(-P, Q) == 1
	if !PairingCheck([]*G1{p, np}, []*G2{q, q}) {
		t.Fatal("pairing check of e(P,Q)e(-P,Q) failed")
	}
	if PairingCheck([]*G1{p, p}, []*G2{q, q}) {
		t.Fatal("pairing check accepted a non-identity product")
	}
}

// pairGolden is Pair(HashToG1("golden vector"), k*g2).Marshal() for the k of
// goldenVectors, printed by the commit before the inversion-free Miller loop.
// It is a reduced value: the unreduced one may differ between Miller-loop
// implementations by a factor the final exponentiation removes.
const pairGolden = "1e8f13cc5a0a4a5a227927f43a7d7c8d01c330b3fe9522d5b1ae7faf27794d890b8f0927d649bba084b0b2b1f07853ca6f084943a12c0eac530dc450ef90f18605954b57c679791ba13a62bc8cd642a6541726d88459b5f3c6e17b0ed201f7d920645bbdb6888fd94af439de283987c26736528ae2e1b45b6fa110c0f154eaad2ed0026cf90a2320c25eb503a5fbf265b0ec6966b9f355e4a6196e8c5dc21a4d0a599bd00e9197dd2b97d87c2b1313804721be510d95d6d9fba461f520756abf1f0836e99845b0749b31fe58271c81d26710575116d2364bedf2ec455f72d35a0247c2a96f0b69d33a4af519885f4f9b344b3f5408840946928937b29d6d055f0b5aaf54ec295493fc25d301f32602ed52e71d0bfac1d99ed74c87e34adf9c661e220a966786ae615c5b646f85a63c41fb19f7d704c9f8b41550a56bdb3277e7077c05319a72a6655f0476cdb85aad332725dcbe4b687c7e5bb70a59656636f81797b78350a5012512fe80bd1a96d8da981b088f5858890e620c661d75dd4b87"

// TestPairGoldenAcrossRepresentations pins the pairing of a non-generator
// pair, and requires the same bytes whether the inputs arrive affine (as
// decoded from the wire) or in the Jacobian form arithmetic leaves behind.
func TestPairGoldenAcrossRepresentations(t *testing.T) {
	k := bigFromBase10("31415926535897932384626433832795028841971693993751058209749445923078164062862")
	p := HashToG1([]byte("golden vector"))
	q := new(G2).ScalarBaseMult(k)

	// Projective copies: 3P - 2P and 3Q - 2Q.
	two, three := big.NewInt(2), big.NewInt(3)
	pj := new(G1).Add(new(G1).ScalarMult(p, three), new(G1).Neg(new(G1).ScalarMult(p, two)))
	qj := new(G2).Add(new(G2).ScalarMult(q, three), new(G2).Neg(new(G2).ScalarMult(q, two)))
	if pj.p.z.IsOne() || qj.p.z.IsOne() {
		t.Fatal("test points are affine; the projective path is not exercised")
	}
	var pa G1
	var qa G2
	if err := pa.Unmarshal(p.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := qa.Unmarshal(q.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !pa.p.z.IsOne() || !qa.p.z.IsOne() {
		t.Fatal("decoded points are not affine")
	}

	for _, c := range []struct {
		name string
		p    *G1
		q    *G2
	}{{"affine", &pa, &qa}, {"jacobian", pj, qj}, {"mixed", &pa, qj}} {
		if got := hex.EncodeToString(Pair(c.p, c.q).Marshal()); got != pairGolden {
			t.Errorf("%s inputs: pairing drifted from the golden value", c.name)
		}
		if !bytes.Equal(MillerLoop(c.p, c.q).Marshal(), MillerLoop(&pa, &qa).Marshal()) {
			t.Errorf("%s inputs: unreduced value depends on the input representation", c.name)
		}
	}
}

// TestPairingCheckVerificationShape runs PairingCheck on the four-term
// product the audit equation has, once balanced and once with one scalar off.
func TestPairingCheckVerificationShape(t *testing.T) {
	a, _ := rand.Int(rand.Reader, Order)
	b, _ := rand.Int(rand.Reader, Order)
	c, _ := rand.Int(rand.Reader, Order)
	p, q := HashToG1([]byte("check")), GenG2()
	// e(aP, bQ) * e(cP, Q) * e(-(ab+c)P, Q) * e(P, 0) == 1
	abc := new(big.Int).Mul(a, b)
	abc.Add(abc, c)
	g1s := []*G1{
		new(G1).ScalarMult(p, a),
		new(G1).ScalarMult(p, c),
		new(G1).Neg(new(G1).ScalarMult(p, abc)),
		p,
	}
	g2s := []*G2{new(G2).ScalarMult(q, b), q, q, new(G2).SetInfinity()}
	if !PairingCheck(g1s, g2s) {
		t.Fatal("PairingCheck rejected a balanced product")
	}
	g1s[1] = new(G1).ScalarMult(p, new(big.Int).Add(c, big.NewInt(1)))
	if PairingCheck(g1s, g2s) {
		t.Fatal("PairingCheck accepted an unbalanced product")
	}
}

func BenchmarkMillerLoop(b *testing.B) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MillerLoop(p, q)
	}
}

func BenchmarkFinalExponentiate(b *testing.B) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	m := MillerLoop(p, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FinalExponentiate(m)
	}
}

func TestPairInfinity(t *testing.T) {
	inf1 := new(G1).SetInfinity()
	g2 := new(G2).ScalarBaseMult(big.NewInt(5))
	if !Pair(inf1, g2).IsOne() {
		t.Fatal("e(O, Q) != 1")
	}
	g1 := new(G1).ScalarBaseMult(big.NewInt(5))
	inf2 := new(G2).SetInfinity()
	if !Pair(g1, inf2).IsOne() {
		t.Fatal("e(P, O) != 1")
	}
}
