package main

import (
	"crypto/rand"
	"encoding/binary"

	"repro/cmd/experiments/internal/merkle"
)

// runEntropy demonstrates the Section II criticism of naive Merkle-tree
// auditing ("the challenge randomness would eventually run out and the
// prover may reuse the challenged blocks"): with single-leaf challenges
// over a d-leaf file, challenge indices start colliding after about
// sqrt(d) rounds (birthday bound), after which a provider that caches
// past (leaf, path) responses answers without storing the file. The HLA
// scheme is immune: every round's challenge is a fresh k-subset with fresh
// coefficients AND a fresh evaluation point, so responses never repeat.
func runEntropy(ctx *expCtx) error {
	const leaves = 4096
	bound := merkle.ChallengeEntropyBound(leaves)
	ctx.printf("Merkle audit with %d leaves: birthday bound ~%d challenges\n", leaves, bound)

	trials := 20
	if ctx.quick {
		trials = 5
	}
	totalFirst := 0
	for tr := 0; tr < trials; tr++ {
		seen := make(map[uint64]bool)
		var buf [8]byte
		for round := 1; ; round++ {
			if _, err := rand.Read(buf[:]); err != nil {
				return err
			}
			idx := binary.BigEndian.Uint64(buf[:]) % leaves
			if seen[idx] {
				totalFirst += round
				break
			}
			seen[idx] = true
		}
	}
	avg := float64(totalFirst) / float64(trials)
	ctx.printf("measured first index reuse after %.0f challenges on average (%d trials)\n", avg, trials)
	ctx.printf("after reuse, a cheating prover can replay its cached (leaf, path) response\n")
	ctx.printf("HLA challenge space: k-subsets x coefficient vectors x evaluation points\n")
	ctx.printf("(~2^128 per seed component) -- reuse is cryptographically unreachable\n")
	return nil
}
