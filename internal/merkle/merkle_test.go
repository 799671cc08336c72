package merkle

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

func makeLeaves(t testing.TB, n, size int) [][]byte {
	t.Helper()
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = make([]byte, size)
		if _, err := rand.Read(leaves[i]); err != nil {
			t.Fatal(err)
		}
	}
	return leaves
}

func TestEmptyTree(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("accepted an empty tree")
	}
}

func TestProveVerifyAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 100} {
		leaves := makeLeaves(t, n, 32)
		tree, err := New(leaves)
		if err != nil {
			t.Fatal(err)
		}
		root := tree.Root()
		for i := 0; i < n; i++ {
			p, err := tree.Prove(i, leaves[i])
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !VerifyProof(root, n, p) {
				t.Fatalf("n=%d i=%d: valid proof rejected", n, i)
			}
		}
	}
}

func TestProveRejectsWrongLeaf(t *testing.T) {
	leaves := makeLeaves(t, 8, 32)
	tree, _ := New(leaves)
	if _, err := tree.Prove(3, leaves[4]); err == nil {
		t.Fatal("Prove accepted mismatched leaf data")
	}
	if _, err := tree.Prove(99, leaves[0]); err == nil {
		t.Fatal("Prove accepted out-of-range index")
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	leaves := makeLeaves(t, 16, 32)
	tree, _ := New(leaves)
	root := tree.Root()
	p, _ := tree.Prove(5, leaves[5])

	// Tampered leaf.
	p.Leaf[0] ^= 1
	if VerifyProof(root, 16, p) {
		t.Fatal("accepted proof with modified leaf")
	}
	p.Leaf[0] ^= 1

	// Tampered path node.
	p.Path[1].Hash[0] ^= 1
	if VerifyProof(root, 16, p) {
		t.Fatal("accepted proof with modified path")
	}
	p.Path[1].Hash[0] ^= 1

	// Wrong index.
	p.Index = 6
	if VerifyProof(root, 16, p) {
		t.Fatal("accepted proof with wrong index")
	}
	p.Index = 5

	// Truncated path.
	short := &Proof{Index: p.Index, Leaf: p.Leaf, Path: p.Path[:len(p.Path)-1]}
	if VerifyProof(root, 16, short) {
		t.Fatal("accepted truncated proof")
	}

	// Sanity: untampered verifies.
	if !VerifyProof(root, 16, p) {
		t.Fatal("control proof rejected")
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	leaves := makeLeaves(t, 8, 32)
	tree, _ := New(leaves)
	p, _ := tree.Prove(0, leaves[0])
	other, _ := New(makeLeaves(t, 8, 32))
	if VerifyProof(other.Root(), 8, p) {
		t.Fatal("proof verified against a different tree's root")
	}
	if VerifyProof(tree.Root(), 8, nil) {
		t.Fatal("nil proof verified")
	}
}

func TestLeafInteriorDomainSeparation(t *testing.T) {
	// A leaf whose bytes equal an interior node's concatenation must not
	// collide with that interior hash.
	leaves := makeLeaves(t, 2, 32)
	tree, _ := New(leaves)
	fake := append(append([]byte{}, tree.levels[0][0]...), tree.levels[0][1]...)
	forged, _ := New([][]byte{fake})
	if bytes.Equal(forged.Root(), tree.Root()) {
		t.Fatal("leaf/interior domain separation failed")
	}
}

func TestProofSize(t *testing.T) {
	// A 1 GB file at 4 KB leaves: depth 18 path, ~580 bytes + leaf. The
	// key comparison for the paper: Merkle proof grows with log(file),
	// HLA proof stays 96/288 bytes.
	size := proofSize(1<<18, 4096)
	if size != 4096+8+18*hashSize {
		t.Fatalf("ProofSize = %d", size)
	}
	if proofSize(1, 100) != 108 {
		t.Fatal("single-leaf proof size wrong")
	}
}

func TestChallengeEntropyBound(t *testing.T) {
	if got := ChallengeEntropyBound(10000); got != 100 {
		t.Fatalf("bound(10000) = %d, want 100", got)
	}
	if ChallengeEntropyBound(0) != 0 {
		t.Fatal("bound(0) != 0")
	}
}

func TestQuickRandomTreesVerify(t *testing.T) {
	f := func(seed []byte, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = []byte(fmt.Sprintf("%x-%d", seed, i))
		}
		tree, err := New(leaves)
		if err != nil {
			return false
		}
		i := n / 2
		p, err := tree.Prove(i, leaves[i])
		if err != nil {
			return false
		}
		return VerifyProof(tree.Root(), n, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// proofSize returns the serialized byte size of an audit path for a tree of
// leafCount leaves with the given leaf size -- the on-chain cost of one
// Merkle audit (compare: 96/288 bytes for the paper's scheme regardless of
// file size).
func proofSize(leafCount, leafSize int) int {
	if leafCount <= 1 {
		return leafSize + 8
	}
	depth := bits.Len(uint(leafCount - 1))
	return leafSize + 8 + depth*hashSize
}
