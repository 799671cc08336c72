// Package beacon implements the randomness sources of the paper's
// Section V-E:
//
//   - CommitReveal: a Randao-style commit-and-reveal game among
//     participants, with deposits slashed for non-revealing. It exhibits
//     the known last-revealer bias, which LastRevealerAdvantage
//     demonstrates empirically (the [36] criticism the paper cites).
//   - Trusted: a NIST-style external beacon (HMAC-DRBG over a seed),
//     the "extra trusted party" alternative the paper mentions.
//
// Both satisfy the contract package's RandomnessSource interface, and both
// carry a gas/cost model so Section VII-B's 0.01-0.05 USD per-round
// randomness estimate can be reproduced.
package beacon

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// SeedBytes is the entropy produced per round (the contract needs 48).
const SeedBytes = 48

// Trusted is a deterministic external beacon: round i yields
// HMAC-SHA256 expansion of the root seed. It models absorbing randomness
// "directly from trusted sources" (NIST-style).
type Trusted struct {
	root [32]byte
}

// NewTrusted creates a trusted beacon from a root seed (nil = random).
func NewTrusted(seed []byte) (*Trusted, error) {
	t := &Trusted{}
	if seed == nil {
		if _, err := io.ReadFull(rand.Reader, t.root[:]); err != nil {
			return nil, err
		}
		return t, nil
	}
	t.root = sha256.Sum256(seed)
	return t, nil
}

// Randomness returns 48 bytes for the round: HMAC-SHA256(root, round ‖ blk)
// for blk = 0, 1, written out over stack buffers. root is shorter than a
// SHA-256 block, so the two pads are root ⊕ 0x36… and root ⊕ 0x5c… and each
// output block is two Sum256 calls; nothing is kept between calls, so any
// goroutine may call it.
func (t *Trusted) Randomness(round int) ([]byte, error) {
	var inner [sha256.BlockSize + 16]byte          // ipad ‖ round ‖ blk
	var outer [sha256.BlockSize + sha256.Size]byte // opad ‖ inner digest
	for i := 0; i < sha256.BlockSize; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range t.root {
		inner[i] ^= b
		outer[i] ^= b
	}
	binary.BigEndian.PutUint64(inner[sha256.BlockSize:], uint64(round))
	out := make([]byte, 0, 2*sha256.Size)
	for blk := uint64(0); len(out) < SeedBytes; blk++ {
		binary.BigEndian.PutUint64(inner[sha256.BlockSize+8:], blk)
		sum := sha256.Sum256(inner[:])
		copy(outer[sha256.BlockSize:], sum[:])
		sum = sha256.Sum256(outer[:])
		out = append(out, sum[:]...)
	}
	return out[:SeedBytes], nil
}

// CommitReveal is one round of an n-party commit-and-reveal game.
// Protocol: every participant commits H(salt || contribution); once all
// commitments are on chain, participants reveal; the beacon output is the
// XOR-fold hash of all revealed contributions. Participants that fail to
// reveal forfeit a deposit, but -- crucially -- the last revealer can still
// *choose* whether to reveal after seeing everyone else's values, buying
// one bit of bias per deposit burned.
type CommitReveal struct {
	parties     int
	commitments [][]byte
	reveals     [][]byte
	revealed    []bool
}

// Errors surfaced by the commit-reveal game.
var (
	ErrBadCommit = errors.New("beacon: reveal does not match commitment")
	ErrNotReady  = errors.New("beacon: protocol phase incomplete")
)

// NewCommitReveal creates a game for n participants.
func NewCommitReveal(n int) (*CommitReveal, error) {
	if n < 1 {
		return nil, fmt.Errorf("beacon: need at least one participant, got %d", n)
	}
	return &CommitReveal{
		parties:     n,
		commitments: make([][]byte, n),
		reveals:     make([][]byte, n),
		revealed:    make([]bool, n),
	}, nil
}

// Commitment computes H(salt || contribution).
func Commitment(salt, contribution []byte) []byte {
	h := sha256.New()
	h.Write(salt)
	h.Write(contribution)
	return h.Sum(nil)
}

// Commit registers party i's commitment.
func (c *CommitReveal) Commit(i int, commitment []byte) error {
	if i < 0 || i >= c.parties {
		return fmt.Errorf("beacon: party %d out of range", i)
	}
	if c.commitments[i] != nil {
		return fmt.Errorf("beacon: party %d already committed", i)
	}
	c.commitments[i] = append([]byte(nil), commitment...)
	return nil
}

// AllCommitted reports whether the commit phase is complete.
func (c *CommitReveal) AllCommitted() bool {
	for _, cm := range c.commitments {
		if cm == nil {
			return false
		}
	}
	return true
}

// Reveal opens party i's commitment. Reveals are only accepted after all
// commitments are in (on chain, the reveal phase starts at a later block).
func (c *CommitReveal) Reveal(i int, salt, contribution []byte) error {
	if !c.AllCommitted() {
		return ErrNotReady
	}
	if i < 0 || i >= c.parties {
		return fmt.Errorf("beacon: party %d out of range", i)
	}
	if c.revealed[i] {
		return fmt.Errorf("beacon: party %d already revealed", i)
	}
	if !bytes.Equal(Commitment(salt, contribution), c.commitments[i]) {
		return ErrBadCommit
	}
	c.reveals[i] = append([]byte(nil), contribution...)
	c.revealed[i] = true
	return nil
}

// Output folds all revealed contributions into the beacon output. Parties
// that did not reveal are skipped (they lose their deposit; the output is
// still produced, which is exactly the bias loophole). At least one reveal
// is required.
func (c *CommitReveal) Output() ([]byte, error) {
	any := false
	h := sha256.New()
	for i, r := range c.reveals {
		if !c.revealed[i] {
			continue
		}
		any = true
		var idx [4]byte
		binary.BigEndian.PutUint32(idx[:], uint32(i))
		h.Write(idx[:])
		h.Write(r)
	}
	if !any {
		return nil, ErrNotReady
	}
	sum := h.Sum(nil)
	out := make([]byte, 0, SeedBytes)
	for len(out) < SeedBytes {
		next := sha256.Sum256(sum)
		sum = next[:]
		out = append(out, sum...)
	}
	return out[:SeedBytes], nil
}

// NonRevealers lists the parties that would be slashed.
func (c *CommitReveal) NonRevealers() []int {
	var out []int
	for i, ok := range c.revealed {
		if !ok {
			out = append(out, i)
		}
	}
	return out
}

// LastRevealerAdvantage runs trials of an n-party game where the last
// party withholds its reveal whenever revealing would make predicate(output)
// false, and reveals otherwise. It returns the fraction of trials in which
// the final output satisfied the predicate. For an unbiased beacon this
// converges to the predicate's natural probability p; with the attack it
// converges to 1-(1-p)^2 (two draws, pick the better), demonstrating [36]'s
// criticism that the paper cites.
func LastRevealerAdvantage(n, trials int, predicate func([]byte) bool) (float64, error) {
	if n < 2 {
		return 0, errors.New("beacon: attack needs at least two parties")
	}
	hits := 0
	for trial := 0; trial < trials; trial++ {
		game, err := NewCommitReveal(n)
		if err != nil {
			return 0, err
		}
		salts := make([][]byte, n)
		contribs := make([][]byte, n)
		for i := 0; i < n; i++ {
			salts[i] = make([]byte, 16)
			contribs[i] = make([]byte, 32)
			if _, err := io.ReadFull(rand.Reader, salts[i]); err != nil {
				return 0, err
			}
			if _, err := io.ReadFull(rand.Reader, contribs[i]); err != nil {
				return 0, err
			}
			if err := game.Commit(i, Commitment(salts[i], contribs[i])); err != nil {
				return 0, err
			}
		}
		// Honest parties reveal first.
		for i := 0; i < n-1; i++ {
			if err := game.Reveal(i, salts[i], contribs[i]); err != nil {
				return 0, err
			}
		}
		// The adversary simulates both worlds before deciding.
		withoutMe, err := game.Output()
		if err != nil {
			return 0, err
		}
		if err := game.Reveal(n-1, salts[n-1], contribs[n-1]); err != nil {
			return 0, err
		}
		withMe, err := game.Output()
		if err != nil {
			return 0, err
		}
		// Withhold iff that improves the adversary's predicate.
		if predicate(withMe) || predicate(withoutMe) {
			hits++
		}
	}
	return float64(hits) / float64(trials), nil
}

// CostModel prices one beacon round on chain.
type CostModel struct {
	CommitGas uint64 // one commitment tx per party
	RevealGas uint64 // one reveal tx per party
	FoldGas   uint64 // the output-folding call
}

// DefaultCostModel approximates Randao-style services: commitments and
// reveals are small storage-writing txs.
func DefaultCostModel() CostModel {
	return CostModel{CommitGas: 21000 + 20000, RevealGas: 21000 + 10000, FoldGas: 30000}
}

// RoundGas returns the total gas for one n-party round.
func (m CostModel) RoundGas(n int) uint64 {
	return uint64(n)*(m.CommitGas+m.RevealGas) + m.FoldGas
}
