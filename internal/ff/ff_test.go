package ff

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/bn256"
)

func TestFieldAxioms(t *testing.T) {
	for i := 0; i < 50; i++ {
		a, _ := Random(rand.Reader)
		b, _ := Random(rand.Reader)
		c, _ := Random(rand.Reader)

		if !Equal(Add(a, b), Add(b, a)) {
			t.Fatal("addition not commutative")
		}
		if !Equal(Mul(a, b), Mul(b, a)) {
			t.Fatal("multiplication not commutative")
		}
		if !Equal(Mul(a, Add(b, c)), Add(Mul(a, b), Mul(a, c))) {
			t.Fatal("multiplication not distributive")
		}
		if !Equal(Add(a, Neg(a)), New(0)) {
			t.Fatal("a + (-a) != 0")
		}
		if a.Sign() != 0 && !Equal(Mul(a, Inv(a)), New(1)) {
			t.Fatal("a * 1/a != 1")
		}
		if a.Sign() != 0 && !Equal(Mul(Mul(a, b), Inv(a)), Reduce(new(big.Int).Set(b))) {
			t.Fatal("(a*b)/a != b")
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	a, _ := Random(rand.Reader)
	enc := Bytes(a)
	if len(enc) != 32 {
		t.Fatalf("encoding is %d bytes, want 32", len(enc))
	}
	dec, err := FromBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, dec) {
		t.Fatal("round trip mismatch")
	}
}

func TestFromBytesRejectsNonCanonical(t *testing.T) {
	over := bn256.Order // n, not a canonical residue
	enc := make([]byte, 32)
	over.FillBytes(enc)
	if _, err := FromBytes(enc); err == nil {
		t.Fatal("accepted n as a canonical scalar")
	}
	if _, err := FromBytes(enc[:31]); err == nil {
		t.Fatal("accepted a short encoding")
	}
}

// scalars returns the small integers vs as field elements.
func scalars(vs ...uint64) []bn256.Scalar {
	out := make([]bn256.Scalar, len(vs))
	for i, v := range vs {
		out[i].SetUint64(v)
	}
	return out
}

func randomScalars(t *testing.T, k int) []bn256.Scalar {
	out := make([]bn256.Scalar, k)
	for i := range out {
		v, err := Random(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		out[i].SetBig(v)
	}
	return out
}

func TestSolveLinearSystem(t *testing.T) {
	// Build a random system with a known solution and solve it back.
	const k = 8
	xTrue := randomScalars(t, k)
	a := make([][]bn256.Scalar, k)
	b := make([]bn256.Scalar, k)
	for i := range a {
		a[i] = randomScalars(t, k)
		var term bn256.Scalar
		for j := range a[i] {
			b[i].Add(&b[i], term.Mul(&a[i][j], &xTrue[j]))
		}
	}
	aCopy := make([][]bn256.Scalar, k)
	for i := range a {
		aCopy[i] = append([]bn256.Scalar(nil), a[i]...)
	}
	x, err := SolveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != xTrue[i] {
			t.Fatalf("solver returned wrong solution at %d", i)
		}
		for j := range a[i] {
			if a[i][j] != aCopy[i][j] {
				t.Fatal("solver modified its input")
			}
		}
	}
}

func TestSolveLinearSystemSingular(t *testing.T) {
	// Two identical rows: singular.
	a := [][]bn256.Scalar{scalars(1, 2), scalars(1, 2)}
	if _, err := SolveLinearSystem(a, scalars(3, 3)); err == nil {
		t.Fatal("expected an error for a singular system")
	}
}

func TestSolveLinearSystemShapeErrors(t *testing.T) {
	if _, err := SolveLinearSystem([][]bn256.Scalar{scalars(1)}, scalars(1, 2)); err == nil {
		t.Fatal("accepted mismatched row count")
	}
	if _, err := SolveLinearSystem([][]bn256.Scalar{scalars(1, 2)}, scalars(1)); err == nil {
		t.Fatal("accepted non-square matrix")
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(av, bv int64) bool {
		a, b := New(av), New(bv)
		return Equal(Sub(Add(a, b), b), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
