package beacon

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
)

// This file implements a Wesolowski verifiable delay function over an RSA
// group, the fix the paper cites ([37], Boneh et al., "Verifiable delay
// functions") for the last-revealer bias of commit-reveal beacons: the
// beacon output is y = x^(2^T) mod N, which takes T sequential squarings
// to evaluate -- longer than the reveal window, so the last revealer cannot
// simulate the output before deciding whether to withhold -- yet verifies
// in O(log T) with Wesolowski's proof:
//
//	challenge prime l = H_prime(x, y)
//	proof     pi = x^floor(2^T / l)
//	check     y == pi^l * x^(2^T mod l)
//
// The modulus is generated locally for the simulation; a deployment would
// use an RSA ceremony or a class group.

// vdf holds the public parameters: the modulus and the delay T.
type vdf struct {
	N *big.Int
	T uint64
}

// newVDF generates a fresh VDF with a modulusBits RSA modulus and delay t.
// The factorization is discarded (no trapdoor evaluation in this package).
func newVDF(modulusBits int, t uint64) (*vdf, error) {
	if modulusBits < 128 {
		return nil, errors.New("beacon: VDF modulus too small")
	}
	if t == 0 {
		return nil, errors.New("beacon: VDF delay must be positive")
	}
	p, err := rand.Prime(rand.Reader, modulusBits/2)
	if err != nil {
		return nil, err
	}
	q, err := rand.Prime(rand.Reader, modulusBits/2)
	if err != nil {
		return nil, err
	}
	return &vdf{N: new(big.Int).Mul(p, q), T: t}, nil
}

// vdfProof is an evaluation with its succinct correctness proof.
type vdfProof struct {
	Input  *big.Int
	Output *big.Int
	Pi     *big.Int
}

// hashToGroup maps seed bytes into Z_N*.
func (v *vdf) hashToGroup(seed []byte) *big.Int {
	h1 := sha256.Sum256(append([]byte{0x10}, seed...))
	h2 := sha256.Sum256(append([]byte{0x11}, seed...))
	x := new(big.Int).SetBytes(append(h1[:], h2[:]...))
	x.Mod(x, v.N)
	if x.Sign() == 0 {
		x.SetInt64(2)
	}
	return x
}

// hashToPrime derives the Fiat-Shamir challenge prime from (x, y).
func (v *vdf) hashToPrime(x, y *big.Int) *big.Int {
	ctr := uint64(0)
	for {
		h := sha256.New()
		h.Write([]byte{0x12})
		h.Write(x.Bytes())
		h.Write(y.Bytes())
		var c [8]byte
		for i := 0; i < 8; i++ {
			c[i] = byte(ctr >> (8 * (7 - i)))
		}
		h.Write(c[:])
		cand := new(big.Int).SetBytes(h.Sum(nil)[:16]) // 128-bit prime
		cand.SetBit(cand, 127, 1)
		cand.SetBit(cand, 0, 1)
		if cand.ProbablyPrime(20) {
			return cand
		}
		ctr++
	}
}

// eval runs the sequential computation: T squarings of x = H(seed), plus
// the Wesolowski proof. This is the slow path by design.
func (v *vdf) eval(seed []byte) (*vdfProof, error) {
	x := v.hashToGroup(seed)
	y := new(big.Int).Set(x)
	for i := uint64(0); i < v.T; i++ {
		y.Mul(y, y)
		y.Mod(y, v.N)
	}
	l := v.hashToPrime(x, y)
	// pi = x^floor(2^T / l)
	exp := new(big.Int).Lsh(big.NewInt(1), uint(v.T))
	quo := new(big.Int).Quo(exp, l)
	pi := new(big.Int).Exp(x, quo, v.N)
	return &vdfProof{Input: x, Output: y, Pi: pi}, nil
}

// verify checks an evaluation in O(log T) group operations.
func (v *vdf) verify(seed []byte, p *vdfProof) bool {
	if p == nil || p.Input == nil || p.Output == nil || p.Pi == nil {
		return false
	}
	if p.Input.Sign() <= 0 || p.Input.Cmp(v.N) >= 0 ||
		p.Output.Sign() <= 0 || p.Output.Cmp(v.N) >= 0 ||
		p.Pi.Sign() <= 0 || p.Pi.Cmp(v.N) >= 0 {
		return false
	}
	x := v.hashToGroup(seed)
	if x.Cmp(p.Input) != 0 {
		return false
	}
	l := v.hashToPrime(p.Input, p.Output)
	// r = 2^T mod l
	r := new(big.Int).Exp(big.NewInt(2), new(big.Int).SetUint64(v.T), l)
	// check y == pi^l * x^r mod N
	lhs := new(big.Int).Exp(p.Pi, l, v.N)
	rhs := new(big.Int).Exp(x, r, v.N)
	lhs.Mul(lhs, rhs)
	lhs.Mod(lhs, v.N)
	return lhs.Cmp(p.Output) == 0
}

// VDFBeacon is a bias-resistant randomness source: each round's output is
// the VDF of the commit-reveal fold (or any public seed), so a withholding
// last revealer cannot predict which of its two candidate worlds wins
// before the reveal deadline passes.
type VDFBeacon struct {
	vdf  *vdf
	base *Trusted // supplies the per-round public seed in this simulation
}

// NewVDFBeacon wraps a trusted seed source with a VDF of the given delay.
func NewVDFBeacon(modulusBits int, t uint64, seed []byte) (*VDFBeacon, error) {
	vdf, err := newVDF(modulusBits, t)
	if err != nil {
		return nil, err
	}
	base, err := NewTrusted(seed)
	if err != nil {
		return nil, err
	}
	return &VDFBeacon{vdf: vdf, base: base}, nil
}

// Randomness evaluates the VDF on the round seed and expands the output to
// the 48 bytes the audit contract needs. The evaluation is verified before
// use (self-check; in deployment the contract verifies the posted proof).
func (b *VDFBeacon) Randomness(round int) ([]byte, error) {
	seed, err := b.base.Randomness(round)
	if err != nil {
		return nil, err
	}
	proof, err := b.vdf.eval(seed)
	if err != nil {
		return nil, err
	}
	if !b.vdf.verify(seed, proof) {
		return nil, fmt.Errorf("beacon: VDF self-verification failed at round %d", round)
	}
	out := make([]byte, 0, seedBytes)
	sum := sha256.Sum256(proof.Output.Bytes())
	for len(out) < seedBytes {
		out = append(out, sum[:]...)
		sum = sha256.Sum256(sum[:])
	}
	return out[:seedBytes], nil
}
