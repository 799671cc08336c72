// Package prf implements the keyed pseudorandom primitives of the paper's
// Definition 2:
//
//   - the pseudorandom permutation pi used to expand the on-chain seed C1
//     into k distinct challenged chunk indices,
//   - the pseudorandom function f used to expand the seed C2 into the k
//     challenge coefficients, 128-bit integers (see Coefficients), and
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
	mac := keyed(seed)
	b1 := prfBlock(mac, 0x02, 2*ctr)
	b2 := prfBlock(mac, 0x02, 2*ctr+1)
	v := new(big.Int).SetBytes(append(b1, b2...))
	return ff.Reduce(v)
}

// Coefficients expands seed into the k challenge coefficients c_l of the PRF
// f, each uniform in B = [0, 2^128): block j of the stream, HMAC-SHA256(seed,
// 0x02 || j) with j as 8 big-endian bytes, gives c_2j from its bytes 0-15 and
// c_2j+1 from bytes 16-31, each read big-endian.
//
// Definition 2 draws the c_l from all of Zn; B is a deviation. Shacham and
// Waters ("Compact Proofs of Retrievability", ASIACRYPT 2008) show that the
// coefficients need only come from a set of size 2^lambda, and lambda = 128
// is the level of the batch weights rho (VerifyBatch, VerifyAuthenticators).
// The argument for this scheme, with the PRF modelled as a random function,
// P = sum_l c_l M_il the challenged combination and (y, psi) an opening at r:
//
//   - Lemma. For any e in Zn^k other than zero, Pr[sum_l c_l e_l = 0 mod n]
//     <= 2^-128 over c uniform in B^k. Fix an l with e_l != 0 and every other
//     coordinate: one residue of c_l solves the equation, and B holds it at
//     most once because 2^128 < n.
//   - sigma. An accepted sigma is (chi g1^v)^x for the v that (y, psi) open
//     to, y + (alpha - r) Q(alpha). Any v other than P(alpha) is a forged
//     aggregate authenticator (CDH), for coefficients of any size. So the
//     check is whether (y, psi) open the commitment g1^P(alpha) at r.
//   - y = P(r) and psi = g1^Q(alpha). Say the provider holds M'_i = M_i + D_i,
//     fixed before the beacon draws c, and answers from P' = sum_l c_l M'_il.
//     Its (y, psi) open g1^P'(alpha), so they are accepted iff P'(alpha) =
//     P(alpha): the lemma with e_l = D_il(alpha) bounds that by 2^-128, where
//     it was 1/n. Whether e is zero depends on the secret alpha and on D, not
//     on c. Opening g1^P(alpha) at r any other way either reveals P(r), which
//     the extractor uses, or opens one commitment to two values, the t-SDH
//     break KZG rests on; neither involves the size of c, and r (EvalPoint)
//     is still drawn from all of Zn.
//   - Extraction (Theorem 1). Rewinding on zeta gives y = P(r)
//     (ExtractEvaluation), s points r give P, and k challenges over one index
//     set give the chunks, by solving the linear system whose rows are their
//     coefficient vectors. A fresh row lies in the span of the rows before
//     it with probability at most 2^-128, the lemma with e normal to that
//     span; the extractor then draws another challenge, which costs it time,
//     not success probability.
//
// So a challenge loses exactly one 2^-128 term, the lemma's. The index
// sampling and its detection rate (1 - 0.99^300 at k = 300, 1 % corrupted)
// are unchanged: they depend on C1 alone.
func Coefficients(seed []byte, k int) ff.Vector {
	mac := keyed(seed)
	vals := make([]big.Int, k)
	out := make(ff.Vector, k)
	var block []byte
	for i := range out {
		if i%2 == 0 {
			block = prfBlock(mac, 0x02, uint64(i/2))
		}
		out[i] = vals[i].SetBytes(block[16*(i%2) : 16*(i%2)+16])
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
