// Package prf implements the keyed pseudorandom primitives of the paper's
// Definition 2:
//
//   - the pseudorandom permutation pi used to expand the on-chain seed C1
//     into k distinct challenged chunk indices,
//   - the pseudorandom function f used to expand the seed C2 into the k
//     challenge coefficients in Zn, and
//   - the random oracle H': GT -> Zn that derives the Sigma-protocol
//     challenge zeta from the commitment R.
//
// Everything is built from HMAC-SHA256 so that the smart contract
// (the verifier) and the storage provider (the prover) derive identical
// values from the same 16-byte seeds, exactly as required for the
// "expand the domain of randomness outputs" step of Section V-B.
package prf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/big"

	"repro/internal/ff"
)

// SeedSize is the byte length of each challenge seed. The paper's challenge
// (C1, C2, r) totals 48 bytes: two 16-byte seeds plus one evaluation point
// truncated to 16 bytes of entropy (r is then mapped into Zn).
const SeedSize = 16

// keyed returns HMAC-SHA256 under seed, the state every block of one
// expansion is drawn from.
func keyed(seed []byte) hash.Hash { return hmac.New(sha256.New, seed) }

// prfBlock returns HMAC-SHA256(seed, tag || ctr) from mac = keyed(seed).
// Reset rewinds mac to its keyed state without hashing the key pads again --
// two of the four compressions of a message this short -- so an expansion
// keys one mac and draws all its blocks from it.
func prfBlock(mac hash.Hash, tag byte, ctr uint64) []byte {
	mac.Reset()
	var buf [9]byte
	buf[0] = tag
	binary.BigEndian.PutUint64(buf[1:], ctr)
	mac.Write(buf[:])
	return mac.Sum(nil)
}

// Scalar derives a field element in Zn from seed and counter. Two digest
// blocks (512 bits) are reduced mod n so the bias is negligible.
func Scalar(seed []byte, ctr uint64) *big.Int {
	return scalar(keyed(seed), ctr)
}

func scalar(mac hash.Hash, ctr uint64) *big.Int {
	b1 := prfBlock(mac, 0x02, 2*ctr)
	b2 := prfBlock(mac, 0x02, 2*ctr+1)
	v := new(big.Int).SetBytes(append(b1, b2...))
	return ff.Reduce(v)
}

// Coefficients expands seed into k challenge coefficients {c_l} in Zn
// (the PRF f of Definition 2).
func Coefficients(seed []byte, k int) ff.Vector {
	mac := keyed(seed)
	out := make(ff.Vector, k)
	for i := range out {
		out[i] = scalar(mac, uint64(i))
	}
	return out
}

// Indices expands seed into k distinct chunk indices in [0, d)
// (the PRP pi of Definition 2). It requires k <= d.
//
// The permutation is realized by a PRF-driven Fisher-Yates shuffle over the
// index domain, evaluated lazily: only the first k entries of the shuffled
// sequence are materialized, so the cost is O(k) regardless of d. A sparse
// map tracks displaced entries.
func Indices(seed []byte, d, k int) ([]int, error) {
	if k < 0 || d < 0 {
		return nil, fmt.Errorf("prf: negative domain (d=%d, k=%d)", d, k)
	}
	if k > d {
		return nil, fmt.Errorf("prf: cannot select %d distinct indices from a domain of %d", k, d)
	}
	mac := keyed(seed)
	out := make([]int, k)
	displaced := make(map[int]int, k)
	lookup := func(i int) int {
		if v, ok := displaced[i]; ok {
			return v
		}
		return i
	}
	for i := 0; i < k; i++ {
		// j uniform in [i, d) via rejection sampling on the PRF stream.
		span := uint64(d - i)
		var j uint64
		for ctr := uint64(0); ; ctr++ {
			block := prfBlock(mac, 0x01, uint64(i)<<32|ctr)
			v := binary.BigEndian.Uint64(block[:8])
			// Rejection bound: largest multiple of span below 2^64.
			limit := (^uint64(0)/span)*span - 1
			if v <= limit {
				j = uint64(i) + v%span
				break
			}
		}
		out[i] = lookup(int(j))
		displaced[int(j)] = lookup(i)
	}
	return out, nil
}

// OracleGT implements H': GT -> Zn over a serialized GT element.
// The caller passes the canonical (uncompressed) marshaling of R.
func OracleGT(serializedGT []byte) *big.Int {
	h1 := sha256.Sum256(append([]byte{0x03, 0x00}, serializedGT...))
	h2 := sha256.Sum256(append([]byte{0x03, 0x01}, serializedGT...))
	v := new(big.Int).SetBytes(append(h1[:], h2[:]...))
	return ff.Reduce(v)
}

// EvalPoint maps the 16-byte challenge component r onto a field element.
// A keyed expansion (rather than zero-padding) keeps the point statistically
// uniform in Zn.
func EvalPoint(seed []byte) *big.Int {
	return Scalar(seed, 0x72657661) // "reva"
}
