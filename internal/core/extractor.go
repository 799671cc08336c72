package core

import (
	"context"
	"fmt"

	"repro/internal/bn256"
)

// This file implements the knowledge extractor behind the paper's
// Theorem 1 (storage correctness): the privacy-assured response is a Sigma
// protocol, so a prover that can answer the same commitment R under two
// different oracle challenges zeta1 != zeta2 necessarily "knows" the masked
// evaluation y = Pk(r) -- it can be computed from the two transcripts as
//
//	y = (y1' - y2') / (zeta1 - zeta2).
//
// In the real protocol zeta is fixed by the random oracle H'(R); the
// extractor models the standard rewinding argument by letting the
// security experiment choose the two challenges. ExtractEvaluation is used
// by tests (and documented here) as executable evidence for the
// extractability step of the soundness proof sketch in Section VI-A.

// ForkedTranscript is one accepting Sigma transcript under an
// experiment-chosen challenge.
type ForkedTranscript struct {
	Zeta   bn256.Scalar
	YPrime bn256.Scalar
}

// ProveWithChallenge produces the private response using an explicitly
// supplied Sigma challenge zeta and mask z, bypassing the random oracle.
// It exists for the rewinding experiment only: the on-chain protocol always
// derives zeta = H'(R).
func (p *Prover) ProveWithChallenge(ch *Challenge, zeta, z bn256.Scalar) (*PrivateProof, error) {
	sigma, y, psi, err := p.buildResponse(context.Background(), ch, nil)
	if err != nil {
		return nil, err
	}
	return p.maskResponse(sigma, y, psi, z, &zeta, nil), nil
}

// ExtractEvaluation recovers the committed evaluation y = Pk(r) from two
// accepting transcripts that share the same commitment (mask z) but answer
// different challenges. It errors if the challenges coincide.
func ExtractEvaluation(t1, t2 *ForkedTranscript) (bn256.Scalar, error) {
	var dz, dy bn256.Scalar
	if dz.Sub(&t1.Zeta, &t2.Zeta).IsZero() {
		return dz, fmt.Errorf("core: transcripts share the challenge; extraction impossible")
	}
	dy.Sub(&t1.YPrime, &t2.YPrime)
	return *dy.Mul(&dy, dz.Inv(&dz)), nil
}

// VerifyWithChallenge checks a private proof against an explicit zeta:
// VerifyPrivate with zeta = H'(R), the rewinding experiment with its own.
func VerifyWithChallenge(pk *PublicKey, d int, ch *Challenge, pr *PrivateProof, zeta bn256.Scalar) bool {
	indices, coeffs, r, err := ch.Expand(d)
	if err != nil {
		return false
	}
	z := zeta.Big()
	x := chi(pk, indices, coeffs, 0)
	x.ScalarMult(x, z)
	sigmaZ := new(bn256.G1).ScalarMult(pr.Sigma, z)
	psiZ := new(bn256.G1).ScalarMult(pr.Psi, z)
	return verifyEquation(pk, x, r, sigmaZ, pr.YPrime, psiZ, pr.R)
}
