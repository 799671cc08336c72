package core

import "repro/internal/bn256"

// Proof sizes on the wire. These are the numbers the paper reports in
// Table II and Fig. 5: 96 bytes without on-chain privacy, 288 bytes with.
const (
	proofSize        = 2*bn256.G1CompressedSize + 32                          // sigma || y || psi
	PrivateProofSize = 2*bn256.G1CompressedSize + 32 + bn256.GTCompressedSize // sigma || y' || psi || R
)

// Proof is the non-private audit response (sigma, y, psi) of Section V-B.
type Proof struct {
	Sigma *bn256.G1
	Y     bn256.Scalar
	Psi   *bn256.G1
}

// PrivateProof is the privacy-assured response (sigma, y', psi, R) of
// Section V-D.
type PrivateProof struct {
	Sigma  *bn256.G1
	YPrime bn256.Scalar
	Psi    *bn256.G1
	R      *bn256.GT
}

// Marshal encodes the proof in its 288-byte on-chain form: three compressed
// G1 points and scalars (96 bytes) plus the torus-compressed GT commitment
// R (192 bytes).
func (p *PrivateProof) Marshal() ([]byte, error) {
	out := make([]byte, 0, PrivateProofSize)
	out = append(out, p.Sigma.MarshalCompressed()...)
	y := p.YPrime.Bytes()
	out = append(out, y[:]...)
	out = append(out, p.Psi.MarshalCompressed()...)
	r, err := p.R.MarshalCompressed()
	if err != nil {
		return nil, err
	}
	out = append(out, r...)
	return out, nil
}

// UnmarshalPrivateProof parses a 288-byte private proof.
func UnmarshalPrivateProof(data []byte) (*PrivateProof, error) {
	if len(data) != PrivateProofSize {
		return nil, ErrMalformed
	}
	p := &PrivateProof{Sigma: new(bn256.G1), Psi: new(bn256.G1), R: new(bn256.GT)}
	if err := p.Sigma.UnmarshalCompressed(data[:32]); err != nil {
		return nil, err
	}
	if err := p.YPrime.SetBytes(data[32:64]); err != nil {
		return nil, err
	}
	if err := p.Psi.UnmarshalCompressed(data[64:96]); err != nil {
		return nil, err
	}
	if err := p.R.UnmarshalCompressed(data[96:]); err != nil {
		return nil, err
	}
	return p, nil
}
