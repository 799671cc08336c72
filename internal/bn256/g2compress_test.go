package bn256

import (
	"crypto/rand"
	"testing"
)

func TestG2CompressedRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		_, p, err := RandomG2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		enc := p.MarshalCompressed()
		if len(enc) != G2CompressedSize {
			t.Fatalf("size %d", len(enc))
		}
		var q G2
		if err := q.UnmarshalCompressed(enc); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("G2 compressed round trip mismatch")
		}
	}
}

func TestG2CompressedInfinity(t *testing.T) {
	inf := new(G2).SetInfinity()
	var q G2
	if err := q.UnmarshalCompressed(inf.MarshalCompressed()); err != nil {
		t.Fatal(err)
	}
	if !q.isInfinity() {
		t.Fatal("infinity round trip failed")
	}
}

func TestG2CompressedRejectsBadInput(t *testing.T) {
	var q G2
	if err := q.UnmarshalCompressed(make([]byte, 10)); err == nil {
		t.Fatal("accepted short encoding")
	}
	// An x with no corresponding point (or off-subgroup) must fail; find
	// one by perturbing a valid encoding until rejection, which must
	// happen quickly.
	_, p, _ := RandomG2(rand.Reader)
	enc := p.MarshalCompressed()
	rejected := false
	for i := 0; i < 64 && !rejected; i++ {
		enc[63] ^= byte(i + 1)
		if err := q.UnmarshalCompressed(enc); err != nil {
			rejected = true
		}
		enc[63] ^= byte(i + 1)
	}
	if !rejected {
		t.Fatal("no perturbed encoding was rejected: missing validation?")
	}
	// Out-of-range field element.
	bad := make([]byte, G2CompressedSize)
	pBig.FillBytes(bad[32:]) // x.y = p: non-canonical
	if err := q.UnmarshalCompressed(bad); err == nil {
		t.Fatal("accepted non-canonical field element")
	}
}

func TestG2CompressedBothRoots(t *testing.T) {
	// Compressing a point and its negation must produce encodings that
	// differ only in the sign bit and round-trip to the right points.
	_, p, _ := RandomG2(rand.Reader)
	np := new(G2).Neg(p)
	e1 := p.MarshalCompressed()
	e2 := np.MarshalCompressed()
	if (e1[0]^e2[0])&flagYOdd != flagYOdd {
		t.Fatal("sign bit does not distinguish negated points")
	}
	var q1, q2 G2
	if err := q1.UnmarshalCompressed(e1); err != nil {
		t.Fatal(err)
	}
	if err := q2.UnmarshalCompressed(e2); err != nil {
		t.Fatal(err)
	}
	if !q1.Equal(p) || !q2.Equal(np) {
		t.Fatal("sign disambiguation failed")
	}
}
