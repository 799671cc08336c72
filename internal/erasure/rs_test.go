package erasure

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func TestGF256Axioms(t *testing.T) {
	// Exhaustive inverse check.
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("a * 1/a != 1 for a=%d", a)
		}
	}
	// Spot-check distributivity exhaustively on a subsample.
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 11 {
			for c := 0; c < 256; c += 13 {
				lhs := gfMul(byte(a), byte(b)^byte(c))
				rhs := gfMul(byte(a), byte(b)) ^ gfMul(byte(a), byte(c))
				if lhs != rhs {
					t.Fatalf("distributivity failed at %d,%d,%d", a, b, c)
				}
			}
		}
	}
	// gfPow consistency.
	if gfPow(2, 8) != gfMul(gfPow(2, 4), gfPow(2, 4)) {
		t.Fatal("gfPow inconsistent")
	}
	if gfPow(0, 5) != 0 || gfPow(7, 0) != 1 {
		t.Fatal("gfPow edge cases wrong")
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gfDiv(3, 0)
}

func TestSplitJoinNoLoss(t *testing.T) {
	c, err := NewCoder(3, 7) // the paper's 3-out-of-10
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1000)
	rand.Read(data)
	shares, err := c.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 10 {
		t.Fatalf("got %d shares, want 10", len(shares))
	}
	got, err := c.Join(shares, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("lossless round trip failed")
	}
}

func TestJoinWithMaximalLoss(t *testing.T) {
	c, _ := NewCoder(3, 7)
	data := make([]byte, 997) // deliberately not a multiple of k
	rand.Read(data)
	shares, _ := c.Split(data)

	// Drop 7 shares (the maximum): keep only shares 2, 5, 9.
	kept := make([][]byte, len(shares))
	for _, i := range []int{2, 5, 9} {
		kept[i] = shares[i]
	}
	got, err := c.Join(kept, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconstruction from 3/10 shares failed")
	}
}

func TestJoinAllSubsetsSmall(t *testing.T) {
	// Every 2-subset of a (2,3) code must reconstruct.
	c, _ := NewCoder(2, 3)
	data := []byte("the quick brown fox jumps over the lazy dog")
	shares, _ := c.Split(data)
	n := len(shares)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			kept := make([][]byte, n)
			kept[i] = shares[i]
			kept[j] = shares[j]
			got, err := c.Join(kept, len(data))
			if err != nil {
				t.Fatalf("subset {%d,%d}: %v", i, j, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("subset {%d,%d}: wrong data", i, j)
			}
		}
	}
}

func TestJoinTooFewShares(t *testing.T) {
	c, _ := NewCoder(3, 2)
	data := make([]byte, 100)
	shares, _ := c.Split(data)
	kept := make([][]byte, len(shares))
	kept[0] = shares[0]
	kept[1] = shares[1]
	if _, err := c.Join(kept, len(data)); err == nil {
		t.Fatal("reconstructed from k-1 shares")
	}
}

func TestJoinValidation(t *testing.T) {
	c, _ := NewCoder(2, 2)
	data := make([]byte, 64)
	shares, _ := c.Split(data)
	if _, err := c.Join(shares[:3], len(data)); err == nil {
		t.Fatal("accepted wrong share-slot count")
	}
	bad := make([][]byte, 4)
	bad[0] = shares[0]
	bad[1] = shares[1][:10]
	if _, err := c.Join(bad, len(data)); err == nil {
		t.Fatal("accepted ragged share lengths")
	}
	if _, err := c.Join(shares, 1<<20); err == nil {
		t.Fatal("accepted implausible length")
	}
}

func TestNewCoderValidation(t *testing.T) {
	for _, tc := range []struct{ k, m int }{{0, 1}, {-1, 1}, {1, -1}, {200, 56}} {
		if _, err := NewCoder(tc.k, tc.m); err == nil {
			t.Fatalf("accepted k=%d m=%d", tc.k, tc.m)
		}
	}
	if _, err := NewCoder(1, 0); err != nil {
		t.Fatalf("rejected trivial coder: %v", err)
	}
}

func TestSplitEmpty(t *testing.T) {
	c, _ := NewCoder(2, 1)
	if _, err := c.Split(nil); err == nil {
		t.Fatal("accepted empty input")
	}
}

// TestOverhead pins the storage expansion the paper's Fig. 6 cost estimates
// fold in: the 10 shares of a 3-of-10 split hold 10/3 of a stripe-aligned
// blob's bytes.
func TestOverhead(t *testing.T) {
	c, _ := NewCoder(3, 7)
	data := make([]byte, 3000)
	shares, err := c.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range shares {
		total += len(s)
	}
	if got := float64(total) / float64(len(data)); got < 3.33 || got > 3.34 {
		t.Fatalf("overhead = %v, want 10/3", got)
	}
}

func TestQuickRandomLossPatterns(t *testing.T) {
	c, _ := NewCoder(4, 4)
	f := func(data []byte, drop uint8) bool {
		if len(data) == 0 {
			return true
		}
		shares, err := c.Split(data)
		if err != nil {
			return false
		}
		// Drop up to 4 shares selected by the bits of drop.
		dropped := 0
		kept := make([][]byte, len(shares))
		copy(kept, shares)
		for i := 0; i < 8 && dropped < 4; i++ {
			if drop&(1<<i) != 0 {
				kept[i] = nil
				dropped++
			}
		}
		got, err := c.Join(kept, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
