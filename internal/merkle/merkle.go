// Package merkle implements SHA-256 Merkle trees with audit paths, the
// building block of both the Siacoin-style baseline discussed in the
// paper's Section II and the ZK-SNARK strawman of Section IV: the prover
// reveals a challenged leaf plus its authentication path, and the verifier
// recomputes the root.
//
// Leaves and interior nodes are domain-separated (0x00 / 0x01 prefixes) to
// prevent second-preimage splicing attacks.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
)

// hashSize is the node digest size.
const hashSize = sha256.Size

// Tree is an immutable Merkle tree over a fixed set of leaves.
type Tree struct {
	leafCount int
	levels    [][][]byte // levels[0] = leaf hashes, last level = [root]
}

var errEmpty = errors.New("merkle: tree requires at least one leaf")

func hashLeaf(data []byte) []byte {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(data)
	return h.Sum(nil)
}

func hashNode(left, right []byte) []byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left)
	h.Write(right)
	return h.Sum(nil)
}

// New builds a tree over the given leaves. Odd levels promote the trailing
// node unchanged (Bitcoin-style duplication is avoided deliberately: the
// promoted node keeps its own preimage domain).
func New(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, errEmpty
	}
	level := make([][]byte, len(leaves))
	for i, l := range leaves {
		level[i] = hashLeaf(l)
	}
	t := &Tree{leafCount: len(leaves)}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([][]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Root returns the tree root.
func (t *Tree) Root() []byte {
	root := t.levels[len(t.levels)-1][0]
	out := make([]byte, hashSize)
	copy(out, root)
	return out
}

// PathStep is one sibling on an authentication path.
type PathStep struct {
	Hash  []byte
	Right bool // sibling sits to the right of the running hash
}

// Proof is a Merkle audit path for one leaf.
type Proof struct {
	Index int
	Leaf  []byte // the leaf data itself (revealed!)
	Path  []PathStep
}

// Prove returns the audit path for leaf index i, including the leaf data.
// Note that a Merkle audit inherently reveals the challenged leaf -- the
// privacy defect that motivates wrapping it in a SNARK (Section IV-B) or
// replacing it with the paper's HLA scheme.
func (t *Tree) Prove(index int, leaf []byte) (*Proof, error) {
	if index < 0 || index >= t.leafCount {
		return nil, fmt.Errorf("merkle: leaf index %d out of range [0, %d)", index, t.leafCount)
	}
	if !bytes.Equal(hashLeaf(leaf), t.levels[0][index]) {
		return nil, fmt.Errorf("merkle: leaf data does not match tree at index %d", index)
	}
	p := &Proof{Index: index, Leaf: append([]byte(nil), leaf...)}
	idx := index
	for lv := 0; lv < len(t.levels)-1; lv++ {
		level := t.levels[lv]
		sib := idx ^ 1
		if sib < len(level) {
			step := PathStep{Hash: append([]byte(nil), level[sib]...), Right: sib > idx}
			p.Path = append(p.Path, step)
		}
		idx >>= 1
	}
	return p, nil
}

// VerifyProof checks the audit path against root for a tree of leafCount
// leaves.
func VerifyProof(root []byte, leafCount int, p *Proof) bool {
	if p == nil || p.Index < 0 || p.Index >= leafCount {
		return false
	}
	h := hashLeaf(p.Leaf)
	idx := p.Index
	width := leafCount
	step := 0
	for width > 1 {
		sib := idx ^ 1
		if sib < width {
			if step >= len(p.Path) {
				return false
			}
			ps := p.Path[step]
			if ps.Right != (sib > idx) {
				return false
			}
			if ps.Right {
				h = hashNode(h, ps.Hash)
			} else {
				h = hashNode(ps.Hash, h)
			}
			step++
		}
		idx >>= 1
		width = (width + 1) / 2
	}
	return step == len(p.Path) && bytes.Equal(h, root)
}

// ChallengeEntropyBound returns how many audits a Merkle challenge domain of
// leafCount leaves can sustain before index reuse becomes likely (the
// birthday bound the paper invokes when criticizing "low entropy of
// challenge randomness" in Siacoin-style auditing): roughly sqrt(leafCount)
// single-leaf challenges.
func ChallengeEntropyBound(leafCount int) int {
	if leafCount <= 0 {
		return 0
	}
	n := 0
	for n*n < leafCount {
		n++
	}
	return n
}
