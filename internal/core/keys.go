// Package core implements the paper's main auditing protocol (Section V):
// homomorphic linear authenticators combined with a KZG-style pairing-based
// polynomial commitment for succinct proofs, and a Sigma-protocol masking
// layer for on-chain privacy.
//
// The protocol has five algorithms, mirroring Fig. 3:
//
//	KeyGen      -> (PrivateKey, PublicKey)
//	Setup       -> per-chunk authenticators sigma_i (data owner)
//	NewChallenge-> (C1, C2, r) seeds (smart contract / beacon)
//	Prove       -> (sigma, y, psi) or private (sigma, y', psi, R) (provider)
//	Verify      -> pairing equations Eq. 1 / Eq. 2 (smart contract)
//
// Naming follows the paper: the file is split into d = ceil(n/s) chunks of
// s blocks, chunk i is the polynomial Mi(x) of Definition 1, the challenge
// combination is Pk(x), and the opening witness is Qk(x) = (Pk(x)-Pk(r))/(x-r).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bn256"
)

// Common protocol errors.
var (
	errBadParameters = errors.New("core: invalid protocol parameters")
	ErrMalformed     = errors.New("core: malformed encoding")
)

// PrivateKey holds the data owner's secrets: the signing exponent x and the
// commitment trapdoor alpha. The owner never reveals either; alpha in
// particular must be erased after Setup in a deployment (the scheme is
// secure even if the owner keeps it, since the owner is the party the
// authenticators protect).
type PrivateKey struct {
	X     bn256.Scalar
	Alpha bn256.Scalar
	Pub   *PublicKey
}

// PublicKey carries everything the verifier (smart contract) and the prover
// need, matching the paper's pk = (p, eps, delta, {g1^alpha^j}, g2, e(g1,eps), H):
//
//	Epsilon = g2^x
//	Delta   = g2^(alpha*x)
//	Powers  = {g1^(alpha^j)} for j = 0..s-1
//	EG1Eps  = e(g1, Epsilon), precomputed for the prover's commitment R
//	Name    = the on-chain file identifier drawn from Zn
//
// The paper lists powers up to s-2 but uses beta_0..beta_{s-1} when
// assembling psi and needs degree s-1 reconstruction for authenticator
// validation; we therefore carry s powers (j = 0..s-1), which also matches
// the paper's own Fig. 4 key-size curve. EG1Eps is the extra element whose
// presence distinguishes the "with on-chain privacy" key sizes in Fig. 4.
type PublicKey struct {
	S       int
	Epsilon *bn256.G2
	Delta   *bn256.G2
	Powers  []*bn256.G1
	EG1Eps  *bn256.GT
	Name    bn256.Scalar
}

// KeyGen generates a key pair for chunk size s (blocks per chunk), drawing x,
// alpha and Name from r in that order. r may be nil, in which case
// crypto/rand is used.
func KeyGen(s int, r io.Reader) (*PrivateKey, error) {
	if s < 1 {
		return nil, fmt.Errorf("%w: chunk size s = %d", errBadParameters, s)
	}
	sk := &PrivateKey{Pub: &PublicKey{S: s}}
	pub := sk.Pub
	for _, v := range []*bn256.Scalar{&sk.X, &sk.Alpha, &pub.Name} {
		if err := v.SetRandom(r); err != nil {
			return nil, err
		}
	}
	var ax, aj bn256.Scalar
	pub.Epsilon = new(bn256.G2).ScalarBaseMult(sk.X.Big())
	pub.Delta = new(bn256.G2).ScalarBaseMult(ax.Mul(&sk.Alpha, &sk.X).Big())
	powers := make([]bn256.Scalar, s)
	aj.SetUint64(1)
	for j := range powers {
		powers[j] = aj
		aj.Mul(&aj, &sk.Alpha)
	}
	// Every Marshal and every prover's psi reads the powers, every Marshal
	// and every verifier's Miller loop reads ε and δ: affine once, here,
	// instead of one inversion per point per use. The batch comb hands the
	// powers out affine.
	pub.Powers = bn256.ScalarBaseMultBatch(powers)
	bn256.NormalizeG2([]*bn256.G2{pub.Epsilon, pub.Delta})
	pub.EG1Eps = bn256.Pair(bn256.GenG1(), pub.Epsilon)
	return sk, nil
}

// Marshal serializes the public key in its on-chain form: the compressed
// sizes here are exactly what Fig. 4 charges as the one-time storage cost.
// Layout: s (4 bytes) || Epsilon (128) || Delta (128) || Name (32) ||
// Powers (s * 32, compressed) || EG1Eps (192, torus-compressed; present only
// when withPrivacy).
func (pk *PublicKey) Marshal(withPrivacy bool) ([]byte, error) {
	out := make([]byte, 0, pk.MarshalSize(withPrivacy))
	out = append(out, byte(pk.S>>24), byte(pk.S>>16), byte(pk.S>>8), byte(pk.S))
	out = append(out, pk.Epsilon.Marshal()...)
	out = append(out, pk.Delta.Marshal()...)
	name := pk.Name.Bytes()
	out = append(out, name[:]...)
	for _, p := range pk.Powers {
		out = append(out, p.MarshalCompressed()...)
	}
	if withPrivacy {
		gt, err := pk.EG1Eps.MarshalCompressed()
		if err != nil {
			return nil, err
		}
		out = append(out, gt...)
	}
	return out, nil
}

// MarshalSize returns the serialized size in bytes (the Fig. 4 quantity).
func (pk *PublicKey) MarshalSize(withPrivacy bool) int {
	n := 4 + 2*bn256.G2UncompressedSize + 32 + pk.S*bn256.G1CompressedSize
	if withPrivacy {
		n += bn256.GTCompressedSize
	}
	return n
}

// UnmarshalPublicKey parses a serialized public key. withPrivacy must match
// the flag used at serialization time.
func UnmarshalPublicKey(data []byte, withPrivacy bool) (*PublicKey, error) {
	if len(data) < 4 {
		return nil, ErrMalformed
	}
	s := int(data[0])<<24 | int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	if s < 1 || s > 1<<20 {
		return nil, fmt.Errorf("%w: chunk size %d", ErrMalformed, s)
	}
	pk := &PublicKey{S: s}
	if len(data) != pk.MarshalSize(withPrivacy) {
		return nil, ErrMalformed
	}
	off := 4
	pk.Epsilon = new(bn256.G2)
	if err := pk.Epsilon.Unmarshal(data[off : off+bn256.G2UncompressedSize]); err != nil {
		return nil, err
	}
	off += bn256.G2UncompressedSize
	pk.Delta = new(bn256.G2)
	if err := pk.Delta.Unmarshal(data[off : off+bn256.G2UncompressedSize]); err != nil {
		return nil, err
	}
	off += bn256.G2UncompressedSize
	if err := pk.Name.SetBytes(data[off : off+32]); err != nil {
		return nil, err
	}
	off += 32
	pk.Powers = make([]*bn256.G1, s)
	for j := 0; j < s; j++ {
		pk.Powers[j] = new(bn256.G1)
		if err := pk.Powers[j].UnmarshalCompressed(data[off : off+bn256.G1CompressedSize]); err != nil {
			return nil, err
		}
		off += bn256.G1CompressedSize
	}
	if withPrivacy {
		pk.EG1Eps = new(bn256.GT)
		if err := pk.EG1Eps.UnmarshalCompressed(data[off : off+bn256.GTCompressedSize]); err != nil {
			return nil, err
		}
	} else {
		pk.EG1Eps = bn256.Pair(bn256.GenG1(), pk.Epsilon)
	}
	return pk, nil
}

// blockTag returns H(name || i), the per-chunk group element t_i, name in
// its 32 canonical bytes. The message stays on the stack.
func (pk *PublicKey) blockTag(i int) *bn256.G1 {
	var msg [40]byte
	name := pk.Name.Bytes()
	copy(msg[:32], name[:])
	binary.BigEndian.PutUint64(msg[32:], uint64(i))
	return bn256.HashToG1(msg[:])
}
