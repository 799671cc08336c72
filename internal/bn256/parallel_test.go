package bn256

import (
	"bytes"
	"context"
	"crypto/rand"
	"math/big"
	"runtime"
	"testing"
)

// randomPairs draws n random (G1, G2) pairs plus matching scalars.
func randomPairs(t testing.TB, n int) ([]*G1, []*G2, []*big.Int) {
	t.Helper()
	g1s := make([]*G1, n)
	g2s := make([]*G2, n)
	scalars := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		k1, err := rand.Int(rand.Reader, Order)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := rand.Int(rand.Reader, Order)
		if err != nil {
			t.Fatal(err)
		}
		g1s[i] = new(G1).ScalarBaseMult(k1)
		g2s[i] = new(G2).ScalarBaseMult(k2)
		scalars[i] = k1
	}
	return g1s, g2s, scalars
}

// TestMultiScalarMultParallelMatchesSerial pins the parallel Pippenger to
// the serial result at several worker counts, including worker counts above
// GOMAXPROCS and above the window count.
func TestMultiScalarMultParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 17, 120} {
		points, _, bigs := randomPairs(t, n)
		scalars := scalarsFromBig(bigs)
		want := new(G1).MultiScalarMult(points, scalars).Marshal()
		for _, workers := range []int{1, 2, 4, 64, 0} {
			got, err := new(G1).MultiScalarMultCtx(context.Background(), points, scalars, workers)
			if err != nil || !bytes.Equal(got.Marshal(), want) {
				t.Fatalf("n=%d workers=%d: parallel MSM diverges from serial", n, workers)
			}
		}
	}
}

// TestMultiScalarMultParallelEdgeCases covers the empty and all-zero-scalar
// inputs on the parallel path.
func TestMultiScalarMultParallelEdgeCases(t *testing.T) {
	if got := new(G1).MultiScalarMultParallel(nil, nil, 4); !got.isInfinity() {
		t.Fatal("empty MSM is not infinity")
	}
	points, _, _ := randomPairs(t, 3)
	zeros := []*big.Int{big.NewInt(0), big.NewInt(0), big.NewInt(0)}
	if got := new(G1).MultiScalarMultParallel(points, zeros, 4); !got.isInfinity() {
		t.Fatal("all-zero MSM is not infinity")
	}
}

// TestMillerBatchMatchesLoop checks that MillerBatch at any worker count is
// byte-identical to the serial product of MillerLoop calls, both unreduced
// and after the shared final exponentiation.
func TestMillerBatchMatchesLoop(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33} {
		g1s, g2s, _ := randomPairs(t, n)
		want := new(GT).SetOne()
		for i := range g1s {
			want.Add(want, MillerLoop(g1s[i], g2s[i]))
		}
		wantBytes := want.Marshal()
		wantReduced := FinalExponentiate(want).Marshal()
		for _, workers := range []int{1, 2, 4, 64, 0} {
			got := MillerBatch(g1s, g2s, workers)
			if !bytes.Equal(got.Marshal(), wantBytes) {
				t.Fatalf("n=%d workers=%d: MillerBatch diverges from MillerLoop product", n, workers)
			}
			if !bytes.Equal(FinalExponentiate(got).Marshal(), wantReduced) {
				t.Fatalf("n=%d workers=%d: reduced MillerBatch diverges", n, workers)
			}
		}
	}
}

// TestMillerBatchSharedPoints exercises the same G2 generator appearing in
// every pair — the exact shape verifyTerms produces — to catch races or
// aliasing on shared inputs.
func TestMillerBatchSharedPoints(t *testing.T) {
	const n = 16
	g1s, _, _ := randomPairs(t, n)
	g2 := GenG2()
	g2s := make([]*G2, n)
	for i := range g2s {
		g2s[i] = g2
	}
	want := MillerBatch(g1s, g2s, 1).Marshal()
	got := MillerBatch(g1s, g2s, runtime.GOMAXPROCS(0)+2).Marshal()
	if !bytes.Equal(got, want) {
		t.Fatal("MillerBatch with shared G2 diverges across worker counts")
	}
}

func TestMillerBatchEmpty(t *testing.T) {
	if got := MillerBatch(nil, nil, 4); !got.IsOne() {
		t.Fatal("empty MillerBatch is not one")
	}
}

func BenchmarkMultiScalarMult300Parallel(b *testing.B) {
	points, _, scalars := randomPairs(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G1).MultiScalarMultParallel(points, scalars, 0)
	}
}

func BenchmarkMillerBatch16(b *testing.B) {
	g1s, g2s, _ := randomPairs(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MillerBatch(g1s, g2s, 0)
	}
}
