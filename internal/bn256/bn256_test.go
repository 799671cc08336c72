package bn256

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

func TestG1MarshalRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		_, p, err := RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var q G1
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("G1 uncompressed round trip mismatch")
		}

		var r G1
		if err := r.UnmarshalCompressed(p.MarshalCompressed()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&r) {
			t.Fatal("G1 compressed round trip mismatch")
		}
	}
}

func TestG1MarshalInfinity(t *testing.T) {
	inf := new(G1).SetInfinity()
	var q G1
	if err := q.Unmarshal(inf.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !q.IsInfinity() {
		t.Fatal("infinity round trip failed")
	}
	var r G1
	if err := r.UnmarshalCompressed(inf.MarshalCompressed()); err != nil {
		t.Fatal(err)
	}
	if !r.IsInfinity() {
		t.Fatal("compressed infinity round trip failed")
	}
}

func TestG1UnmarshalRejectsOffCurve(t *testing.T) {
	bad := make([]byte, G1UncompressedSize)
	bad[31] = 5 // x = 5
	bad[63] = 1 // y = 1; 1 != 125+3
	var q G1
	if err := q.Unmarshal(bad); err == nil {
		t.Fatal("accepted an off-curve point")
	}
	if err := q.Unmarshal(bad[:10]); err == nil {
		t.Fatal("accepted a truncated encoding")
	}
}

func TestG2MarshalRoundTrip(t *testing.T) {
	for i := 0; i < 5; i++ {
		_, p, err := RandomG2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var q G2
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("G2 round trip mismatch")
		}
	}
}

func TestG2UnmarshalRejectsWrongSubgroup(t *testing.T) {
	// Construct a twist point outside the order-n subgroup: a point of the
	// full twist group that survives multiplication by n.
	for j := int64(0); ; j++ {
		x := newGFp2().SetInt64s(j, 1)
		y2 := newGFp2().Square(x)
		y2.Mul(y2, x)
		y2.Add(y2, twistB)
		y := sqrtFp2(y2)
		if y == nil {
			continue
		}
		pt := newTwistPoint().SetAffine(x, y)
		if newTwistPoint().Mul(pt, Order).IsInfinity() {
			continue // accidentally in the subgroup; try next x
		}
		enc := make([]byte, G2UncompressedSize)
		px, py := pt.Affine()
		px.x.Marshal(enc[0:32])
		px.y.Marshal(enc[32:64])
		py.x.Marshal(enc[64:96])
		py.y.Marshal(enc[96:128])
		var q G2
		if err := q.Unmarshal(enc); err == nil {
			t.Fatal("accepted a twist point outside the order-n subgroup")
		}
		return
	}
}

func TestGTMarshalRoundTrip(t *testing.T) {
	k, _ := rand.Int(rand.Reader, Order)
	g := Pair(new(G1).ScalarBaseMult(big.NewInt(1)), new(G2).ScalarBaseMult(big.NewInt(1)))
	e := new(GT).ScalarMult(g, k)

	var q GT
	if err := q.Unmarshal(e.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !e.Equal(&q) {
		t.Fatal("GT uncompressed round trip mismatch")
	}
}

func TestGTTorusCompression(t *testing.T) {
	g := Pair(new(G1).ScalarBaseMult(big.NewInt(1)), new(G2).ScalarBaseMult(big.NewInt(1)))
	for i := 0; i < 5; i++ {
		k, _ := rand.Int(rand.Reader, Order)
		if k.Sign() == 0 {
			continue
		}
		e := new(GT).ScalarMult(g, k)
		enc, err := e.MarshalCompressed()
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != GTCompressedSize {
			t.Fatalf("compressed GT size = %d, want %d", len(enc), GTCompressedSize)
		}
		var q GT
		if err := q.UnmarshalCompressed(enc); err != nil {
			t.Fatal(err)
		}
		if !e.Equal(&q) {
			t.Fatal("GT torus round trip mismatch")
		}
	}
}

func TestGTCompressedRejectsGarbage(t *testing.T) {
	junk := bytes.Repeat([]byte{0xAB}, GTCompressedSize)
	var q GT
	if err := q.UnmarshalCompressed(junk); err == nil {
		t.Fatal("accepted garbage as a compressed GT element")
	}
}

func TestHashToG1(t *testing.T) {
	p1 := HashToG1([]byte("hello"))
	p2 := HashToG1([]byte("hello"))
	if !p1.Equal(p2) {
		t.Fatal("HashToG1 not deterministic")
	}
	p3 := HashToG1([]byte("world"))
	if p1.Equal(p3) {
		t.Fatal("distinct inputs hashed to the same point")
	}
	if p1.IsInfinity() {
		t.Fatal("hashed to infinity")
	}
	if !p1.p.IsOnCurve() {
		t.Fatal("hashed point off curve")
	}
	// Hashed points must have order n (G1 is prime order, so automatic,
	// but verify anyway) -- on the unreduced ladder: ScalarMult takes its
	// scalar mod n and would pass for any point.
	if !newCurvePoint().Mul(p1.p, Order).IsInfinity() {
		t.Fatal("hashed point has wrong order")
	}
}

func TestScalarMultMatchesRepeatedAdd(t *testing.T) {
	p := HashToG1([]byte("base"))
	acc := new(G1).SetInfinity()
	for k := 1; k <= 10; k++ {
		acc.Add(acc, p)
		viaMul := new(G1).ScalarMult(p, big.NewInt(int64(k)))
		if !acc.Equal(viaMul) {
			t.Fatalf("scalar mult by %d disagrees with repeated addition", k)
		}
	}
}

func TestG1ScalarModOrder(t *testing.T) {
	k, _ := rand.Int(rand.Reader, Order)
	kPlusN := new(big.Int).Add(k, Order)
	a := new(G1).ScalarBaseMult(k)
	b := new(G1).ScalarBaseMult(kPlusN)
	if !a.Equal(b) {
		t.Fatal("scalar multiplication not periodic mod n")
	}
}

func TestMillerThenFinalEqualsPair(t *testing.T) {
	a, _ := rand.Int(rand.Reader, Order)
	b, _ := rand.Int(rand.Reader, Order)
	p := new(G1).ScalarBaseMult(a)
	q := new(G2).ScalarBaseMult(b)
	direct := Pair(p, q)
	viaMiller := FinalExponentiate(MillerLoop(p, q))
	if !direct.Equal(viaMiller) {
		t.Fatal("Pair != FinalExponentiate(MillerLoop)")
	}
}
