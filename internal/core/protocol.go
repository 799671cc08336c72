package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"time"

	"repro/internal/bn256"
	"repro/internal/parallel"
	"repro/internal/poly"
	"repro/internal/prf"
)

// Authenticator is the homomorphic linear authenticator of one chunk:
// sigma_i = (g1^{Mi(alpha)} * H(name||i))^x.
type Authenticator struct {
	Index int
	Sigma *bn256.G1
}

// CloneAuthenticators deep-copies a set of authenticators, so a provider
// can retain its own replica independent of the owner's (and of other
// providers auditing the same file).
func CloneAuthenticators(auths []*Authenticator) []*Authenticator {
	out := make([]*Authenticator, len(auths))
	for i, a := range auths {
		out[i] = &Authenticator{Index: a.Index, Sigma: new(bn256.G1).Set(a.Sigma)}
	}
	return out
}

// Setup computes the authenticators for every chunk of the encoded file.
// This is the data owner's one-time preprocessing (the Fig. 7 workload) and
// its dominant cost, so it fans the independent per-chunk computations out
// across GOMAXPROCS workers; SetupParallel exposes the worker count, and the
// output is byte-identical at any parallelism.
func Setup(sk *PrivateKey, ef *EncodedFile) ([]*Authenticator, error) {
	return SetupParallel(sk, ef, 0)
}

// VerifyAuthenticators is the storage provider's acceptance check before it
// signals the smart contract to proceed (Section V-B, Initialize). Every
// sampled chunk i must satisfy e(sigma_i, g2) = e(g1^{Mi(alpha)} * t_i, eps),
// with g1^{Mi(alpha)} reconstructed from the public powers; the whole sample
// is checked in one equation under fresh random 128-bit weights rho_j,
//
//	e(sum_j rho_j sigma_{i_j}, g2) = e(g1^{(sum_j rho_j M_{i_j})(alpha)} * prod_j t_{i_j}^{rho_j}, eps),
//
// which costs one s-point multi-scalar multiplication and two Miller loops
// whatever the sample size. G1 has prime order and decoding rejects
// off-curve points, so each sigma_i is off by a group element that is the
// identity exactly when its own equation holds: a cheating owner's sample
// with any bad authenticator (planted to later win disputes) passes with
// probability at most 2^-128 over the weights, the small-exponent argument
// of VerifyBatch. When the combined check fails, the sampled chunks are
// re-checked one at a time, in sample order, to name the first bad one.
//
// Each evaluation of the equation forms its three G1 sums (the commitment
// to the weighted chunk polynomial, the weighted tags and the weighted
// sigmas) concurrently and runs its two Miller loops through
// bn256.MillerBatch, across GOMAXPROCS goroutines, before one final
// exponentiation. Only the arithmetic is spread: the parameter checks run
// first and in order, and the error returned — a bad parameter, or the first
// failing chunk of the sample — is the one a serial evaluation returns.
//
// sample lists the chunk indices to check; pass nil to check all.
func VerifyAuthenticators(pk *PublicKey, ef *EncodedFile, auths []*Authenticator, sample []int) error {
	if ef.S != pk.S {
		// Checked before any pairing work: a key and file that disagree on
		// the chunk size would otherwise feed mismatched slice lengths
		// into MultiScalarMult, which panics — and when the two arrive
		// independently over a wire, that must be an error, not a crash.
		return fmt.Errorf("%w: file chunk size %d != key chunk size %d", ErrBadParameters, ef.S, pk.S)
	}
	if len(auths) != ef.NumChunks() {
		return fmt.Errorf("%w: %d authenticators for %d chunks", ErrBadParameters, len(auths), ef.NumChunks())
	}
	if sample == nil {
		sample = make([]int, len(auths))
		for i := range sample {
			sample[i] = i
		}
	}
	for _, i := range sample {
		if i < 0 || i >= len(auths) {
			return fmt.Errorf("%w: sample index %d out of range", ErrBadParameters, i)
		}
		if auths[i].Index != i {
			return fmt.Errorf("%w: authenticator at position %d has index %d", ErrBadParameters, i, auths[i].Index)
		}
	}
	if len(sample) == 0 {
		return nil
	}

	// Fresh weights per call, drawn after the authenticators are fixed; a
	// zero weight would drop its chunk from the check.
	buf := make([]byte, 16*len(sample))
	if _, err := rand.Read(buf); err != nil {
		return fmt.Errorf("core: drawing acceptance weights: %w", err)
	}
	rho := make([]bn256.Scalar, len(sample))
	for j := range rho {
		_ = rho[j].SetBytes(buf[16*j : 16*j+16]) // below 2^128 < n
		if rho[j].IsZero() {
			rho[j].SetUint64(1)
		}
	}
	if authenticatorsHold(pk, ef, auths, sample, rho) {
		return nil
	}
	one := make([]bn256.Scalar, 1)
	one[0].SetUint64(1)
	for _, i := range sample {
		if !authenticatorsHold(pk, ef, auths, []int{i}, one) {
			return fmt.Errorf("core: authenticator %d failed verification", i)
		}
	}
	// Unreachable: the combined equation is a product of powers of the
	// single ones, so it holds whenever each of them does.
	return fmt.Errorf("core: authenticators failed verification")
}

// authenticatorsHold evaluates VerifyAuthenticators' equation over the
// sampled chunks, whose indices the caller has validated, under weights rho,
// with its three sums one task each.
func authenticatorsHold(pk *PublicKey, ef *EncodedFile, auths []*Authenticator, sample []int, rho []bn256.Scalar) bool {
	var commit, tagSum, sigma *bn256.G1
	parallel.For(0, 3, func(task int) {
		switch task {
		case 0:
			polys := make([]*poly.Poly, len(sample))
			for j, i := range sample {
				polys[j] = &ef.Chunks[i]
			}
			combined, err := poly.LinearCombination(polys, rho)
			if err != nil {
				return // commit stays nil: the equation does not hold
			}
			commit = new(bn256.G1).MultiScalarMult(pk.Powers, combined.Coeffs)
		case 1:
			tags := make([]*bn256.G1, len(sample))
			for j, i := range sample {
				tags[j] = pk.blockTag(i)
			}
			tagSum = new(bn256.G1).MultiScalarMult(tags, rho)
		default:
			sigmas := make([]*bn256.G1, len(sample))
			for j, i := range sample {
				sigmas[j] = auths[i].Sigma
			}
			sigma = new(bn256.G1).MultiScalarMult(sigmas, rho)
		}
	})
	if commit == nil {
		return false
	}
	commit.Add(commit, tagSum)
	// e(sigma, g2) * e(-commit, eps) == 1
	return bn256.FinalExponentiate(bn256.MillerBatch(
		[]*bn256.G1{sigma, commit.Neg(commit)},
		[]*bn256.G2{bn256.GenG2(), pk.Epsilon}, 0,
	)).IsOne()
}

// Challenge is the on-chain challenge (C1, C2, r): 48 bytes total, exactly
// the randomness budget the paper charges per audit round.
type Challenge struct {
	C1 [prf.SeedSize]byte // seeds the PRP selecting chunk indices
	C2 [prf.SeedSize]byte // seeds the PRF producing coefficients
	R  [prf.SeedSize]byte // seeds the polynomial evaluation point
	K  int                // number of challenged chunks
}

// NewChallenge draws a fresh challenge for k chunks from r (crypto/rand if
// nil). In deployment the entropy comes from the randomness beacon; the
// contract package wires that in.
func NewChallenge(k int, r io.Reader) (*Challenge, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k = %d", ErrBadParameters, k)
	}
	if r == nil {
		r = rand.Reader
	}
	ch := &Challenge{K: k}
	for _, buf := range [][]byte{ch.C1[:], ch.C2[:], ch.R[:]} {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// Marshal encodes the challenge as C1 || C2 || R (48 bytes; k travels in the
// contract state, not the challenge itself).
func (c *Challenge) Marshal() []byte {
	out := make([]byte, 0, 3*prf.SeedSize)
	out = append(out, c.C1[:]...)
	out = append(out, c.C2[:]...)
	out = append(out, c.R[:]...)
	return out
}

// Expand derives the challenged index set, the coefficients and the
// evaluation point for a file with d chunks. Both prover and verifier call
// this; determinism is what lets 48 on-chain bytes drive a k=300 audit.
func (c *Challenge) Expand(d int) (indices []int, coeffs []bn256.Scalar, r bn256.Scalar, err error) {
	k := c.K
	if k > d {
		k = d // small files: challenge every chunk
	}
	indices, err = prf.Indices(c.C1[:], d, k)
	if err != nil {
		return nil, nil, r, err
	}
	coeffs = prf.Coefficients(c.C2[:], k)
	r = prf.EvalPoint(c.R[:])
	return indices, coeffs, r, nil
}

// ProveStats records where proving time went, feeding the ECC-vs-Zp split
// of Fig. 8.
type ProveStats struct {
	ECC time.Duration // elliptic-curve and pairing work
	Zp  time.Duration // finite-field polynomial work
}

// Prover bundles what the storage provider holds for one contract: the
// public key, the encoded data and the authenticators.
type Prover struct {
	Pub   *PublicKey
	File  *EncodedFile
	Auths []*Authenticator

	// Workers bounds the goroutines used by the proof's multi-scalar
	// multiplications (sigma and psi aggregation). 0 selects GOMAXPROCS;
	// proofs are byte-identical at any setting.
	Workers int
}

// NewProver validates dimensions and returns a Prover.
func NewProver(pk *PublicKey, ef *EncodedFile, auths []*Authenticator) (*Prover, error) {
	if ef.S != pk.S {
		return nil, fmt.Errorf("%w: file s=%d, key s=%d", ErrBadParameters, ef.S, pk.S)
	}
	if len(auths) != ef.NumChunks() {
		return nil, fmt.Errorf("%w: %d authenticators for %d chunks", ErrBadParameters, len(auths), ef.NumChunks())
	}
	return &Prover{Pub: pk, File: ef, Auths: auths}, nil
}

// buildResponse computes the shared core of both proof flavors:
// sigma = prod sigma_i^{c_i}, Pk, y = Pk(r), psi = g1^{Qk(alpha)}.
//
// The proving pipeline is cancellation-aware at every stage boundary and
// inside the two multi-scalar multiplications: a remote peer that
// disconnects mid-proof (the ctx owner) stops the CPU burn within a few
// dozen point additions instead of completing a proof nobody will collect.
func (p *Prover) buildResponse(ctx context.Context, ch *Challenge, stats *ProveStats) (sigma *bn256.G1, y bn256.Scalar, psi *bn256.G1, err error) {
	indices, coeffs, r, err := ch.Expand(p.File.NumChunks())
	if err != nil {
		return nil, y, nil, err
	}

	// sigma aggregation: ECC.
	start := time.Now()
	pts := make([]*bn256.G1, len(indices))
	for j, idx := range indices {
		pts[j] = p.Auths[idx].Sigma
	}
	sigma, err = new(bn256.G1).MultiScalarMultCtx(ctx, pts, coeffs, p.Workers)
	if err != nil {
		return nil, y, nil, err
	}
	if stats != nil {
		stats.ECC += time.Since(start)
	}

	// Pk, y, Qk: Zp.
	if err := ctx.Err(); err != nil {
		return nil, y, nil, err
	}
	start = time.Now()
	polys := make([]*poly.Poly, len(indices))
	for j, idx := range indices {
		polys[j] = &p.File.Chunks[idx]
	}
	pk, err := poly.LinearCombination(polys, coeffs)
	if err != nil {
		return nil, y, nil, err
	}
	qk, y := pk.DivideByLinear(&r)
	if stats != nil {
		stats.Zp += time.Since(start)
	}

	// psi = g1^{Qk(alpha)} from the powers: ECC.
	if err := ctx.Err(); err != nil {
		return nil, y, nil, err
	}
	start = time.Now()
	psi, err = new(bn256.G1).MultiScalarMultCtx(ctx, p.Pub.Powers[:len(qk.Coeffs)], qk.Coeffs, p.Workers)
	if err != nil {
		return nil, y, nil, err
	}
	if stats != nil {
		stats.ECC += time.Since(start)
	}
	return sigma, y, psi, nil
}

// Prove produces the non-private response (sigma, y, psi) of Section V-B.
// Its on-chain audit trail leaks Pk(r) and is exactly what the Section V-C
// adversary exploits; it exists as the "w/o on-chain privacy" baseline of
// Figs. 5, 8 and 9. stats may be nil.
func (p *Prover) Prove(ch *Challenge, stats *ProveStats) (*Proof, error) {
	return p.ProveCtx(context.Background(), ch, stats)
}

// ProveCtx is Prove with cooperative cancellation (see buildResponse).
func (p *Prover) ProveCtx(ctx context.Context, ch *Challenge, stats *ProveStats) (*Proof, error) {
	sigma, y, psi, err := p.buildResponse(ctx, ch, stats)
	if err != nil {
		return nil, err
	}
	return &Proof{Sigma: sigma, Y: y, Psi: psi}, nil
}

// ProvePrivate produces the privacy-assured response (sigma, y', psi, R) of
// Section V-D: y is masked as y' = zeta*y + z with zeta = H'(R), R = e(g1,eps)^z,
// a Sigma-protocol transcript that is witness indistinguishable on chain.
// stats may be nil; rng may be nil for crypto/rand.
func (p *Prover) ProvePrivate(ch *Challenge, stats *ProveStats, rng io.Reader) (*PrivateProof, error) {
	return p.ProvePrivateCtx(context.Background(), ch, stats, rng)
}

// ProvePrivateCtx is ProvePrivate with cooperative cancellation: the context
// is polled between the stages, inside the MSMs' bucket passes and before the
// commitment (a canceled proof draws no randomness), so a canceled caller (a
// vanished remote peer) stops the proof computation promptly.
func (p *Prover) ProvePrivateCtx(ctx context.Context, ch *Challenge, stats *ProveStats, rng io.Reader) (*PrivateProof, error) {
	sigma, y, psi, err := p.buildResponse(ctx, ch, stats)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var z bn256.Scalar
	if err := z.SetRandom(rng); err != nil {
		return nil, err
	}
	return p.maskResponse(sigma, y, psi, z, nil, stats), nil
}

// maskResponse is the Sigma-protocol step of Section V-D: the commitment
// R = e(g1, eps)^z and y' = zeta*y + z, with zeta = H'(R) unless the rewinding
// experiment brings its own. EG1Eps has order n, which GT.ScalarMult requires:
// it is a pairing value or came through UnmarshalPublicKey's subgroup check.
func (p *Prover) maskResponse(sigma *bn256.G1, y bn256.Scalar, psi *bn256.G1, z bn256.Scalar, zeta *bn256.Scalar, stats *ProveStats) *PrivateProof {
	start := time.Now()
	r := new(bn256.GT).ScalarMult(p.Pub.EG1Eps, z.Big())
	if stats != nil {
		stats.ECC += time.Since(start)
	}
	start = time.Now()
	if zeta == nil {
		h := prf.OracleGT(r.Marshal())
		zeta = &h
	}
	pr := &PrivateProof{Sigma: sigma, Psi: psi, R: r}
	pr.YPrime.Mul(zeta, &y).Add(&pr.YPrime, &z)
	if stats != nil {
		stats.Zp += time.Since(start)
	}
	return pr
}

// chi computes prod_i H(name||i)^{c_i} over the challenged indices: the
// verifier-side aggregation both equations share. The per-index tag hashing
// and the multi-scalar multiplication both spread across workers (0 selects
// GOMAXPROCS, 1 keeps the computation on the caller).
func chi(pk *PublicKey, indices []int, coeffs []bn256.Scalar, workers int) *bn256.G1 {
	tags := make([]*bn256.G1, len(indices))
	parallel.For(workers, len(indices), func(j int) {
		tags[j] = pk.blockTag(indices[j])
	})
	// The verifier has no context to pass; one that is never done cannot fail.
	sum, _ := new(bn256.G1).MultiScalarMultCtx(context.TODO(), tags, coeffs, workers)
	return sum
}

// Verify checks the non-private proof against Eq. 1:
//
//	e(sigma, g2) * e(g1^{-y}, eps) = e(chi, eps) * e(psi, delta * eps^{-r})
//
// folded into a single product of three Miller loops sharing one final
// exponentiation. d is the file's chunk count.
func Verify(pk *PublicKey, d int, ch *Challenge, pr *Proof) bool {
	indices, coeffs, r, err := ch.Expand(d)
	if err != nil {
		return false
	}
	x := chi(pk, indices, coeffs, 0)
	return verifyEquation(pk, x, r, pr.Sigma, pr.Y, pr.Psi, nil)
}

// VerifyPrivate checks the private proof against Eq. 2:
//
//	R * e(sigma^zeta, g2) * e(g1^{-y'}, eps) = e(chi^zeta, eps) * e(psi^zeta, delta * eps^{-r})
func VerifyPrivate(pk *PublicKey, d int, ch *Challenge, pr *PrivateProof) bool {
	return VerifyWithChallenge(pk, d, ch, pr, prf.OracleGT(pr.R.Marshal()))
}

// verifyEquation checks
//
//	[R *] e(sigma, g2) * e(g1^{-y}, eps) * e(chi, eps)^{-1} * e(psi, delta*eps^{-r})^{-1} == 1
//
// with one shared final exponentiation and no G2 arithmetic: by bilinearity
// e(psi, delta*eps^{-r})^{-1} = e(psi^{-1}, delta) * e(psi^r, eps), and the
// g1^{-y}, chi^{-1} and psi^r terms all pair against the same eps, so they
// are merged into a single Miller loop (e(a,Q)*e(b,Q) = e(a+b,Q) once
// final-exponentiated): three Miller loops total. R == nil means the
// non-private form.
func verifyEquation(pk *PublicKey, chiAgg *bn256.G1, r bn256.Scalar, sigma *bn256.G1, y bn256.Scalar, psi *bn256.G1, rCommit *bn256.GT) bool {
	epsTerm := new(bn256.G1).ScalarBaseMult(y.Neg(&y).Big())     // g1^{-y}
	epsTerm.Add(epsTerm, new(bn256.G1).Neg(chiAgg))              // * chi^{-1}
	epsTerm.Add(epsTerm, new(bn256.G1).ScalarMult(psi, r.Big())) // * psi^r

	acc := bn256.MillerLoop(sigma, bn256.GenG2())
	acc.Add(acc, bn256.MillerLoop(epsTerm, pk.Epsilon))
	acc.Add(acc, bn256.MillerLoop(new(bn256.G1).Neg(psi), pk.Delta))
	res := bn256.FinalExponentiate(acc)
	if rCommit != nil {
		res.Add(res, rCommit)
	}
	return res.IsOne()
}
