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
	"slices"

	"repro/internal/bn256"
	"repro/internal/parallel"
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
//
// A key's points are read-only: decodes of one owner key share them (see
// UnmarshalPublicKey), so nothing may write to ε, δ, a power or EG1Eps in
// place; a key with other points is a key with new ones. Its body encoding,
// everything but Name (KeyBody), is fixed when the key is made, by KeyGen
// or UnmarshalPublicKey, and served as long as S and the point fields still
// hold what it was encoded from; a key whose S or points were replaced is
// encoded afresh. The key of another file of the same owner is a struct
// copy with a new Name: it shares the points and the body.
type PublicKey struct {
	S       int
	Epsilon *bn256.G2
	Delta   *bn256.G2
	Powers  []*bn256.G1
	EG1Eps  *bn256.GT
	Name    bn256.Scalar

	body *keyBody // nil for a key built by hand
}

// keyBody is a key's body encoding and the S and points it was made from.
// It is written once, before the key is handed out, and only read after.
type keyBody struct {
	s              int
	epsilon, delta *bn256.G2
	powers         []*bn256.G1 // its own copy of the slice
	eg1Eps         *bn256.GT
	enc            []byte // the body, ending in EG1Eps's encoding iff withGT
	withGT         bool
}

// newKeyBody remembers enc as pk's body encoding, withGT telling whether it
// ends in EG1Eps.
func newKeyBody(pk *PublicKey, enc []byte, withGT bool) *keyBody {
	return &keyBody{
		s: pk.S, epsilon: pk.Epsilon, delta: pk.Delta, powers: slices.Clone(pk.Powers),
		eg1Eps: pk.EG1Eps, enc: enc, withGT: withGT,
	}
}

// stored returns pk's remembered body encoding, with or without EG1Eps, or
// nil when pk has none that fits: none was made, it lacks the EG1Eps asked
// for, or S or a point field no longer holds what it was encoded from. The
// result is shared and capped at its length: read-only.
func (pk *PublicKey) stored(withPrivacy bool) []byte {
	b := pk.body
	if b == nil || pk.S != b.s || pk.Epsilon != b.epsilon || pk.Delta != b.delta || !slices.Equal(pk.Powers, b.powers) {
		return nil
	}
	if !withPrivacy {
		n := len(b.enc)
		if b.withGT {
			n -= bn256.GTCompressedSize
		}
		return b.enc[:n:n]
	}
	if !b.withGT || pk.EG1Eps != b.eg1Eps {
		return nil
	}
	return b.enc[:len(b.enc):len(b.enc)]
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
	// Encoded once, here: every contract and frame of the key copies it. A
	// key whose EG1Eps does not compress keeps none, and Marshal(true)
	// reports the error.
	if enc, err := pub.encodeBody(true); err == nil {
		pub.body = newKeyBody(pub, enc, true)
	}
	return sk, nil
}

// Marshal serializes the public key in its on-chain form: the compressed
// sizes here are exactly what Fig. 4 charges as the one-time storage cost.
// Layout: s (4 bytes) || Epsilon (128) || Delta (128) || Name (32) ||
// Powers (s * 32, compressed) || EG1Eps (192, torus-compressed; present only
// when withPrivacy). It is KeyBody's body with Name spliced in.
func (pk *PublicKey) Marshal(withPrivacy bool) ([]byte, error) {
	body, name, err := pk.KeyBody(withPrivacy)
	if err != nil {
		return nil, err
	}
	return joinKeyEncoding(body, name), nil
}

// joinKeyEncoding splices name into a key body: splitKeyEncoding's inverse.
func joinKeyEncoding(body []byte, name [32]byte) []byte {
	out := make([]byte, 0, len(body)+len(name))
	return append(append(append(out, body[:keyNameAt]...), name[:]...), body[keyNameAt:]...)
}

// UnmarshalKeyBody is UnmarshalPublicKey for a key given as KeyBody's two
// parts, the form the chain keeps it in.
func UnmarshalKeyBody(body []byte, name [32]byte, withPrivacy bool) (*PublicKey, error) {
	if len(body) < keyNameAt {
		return nil, ErrMalformed
	}
	return UnmarshalPublicKey(joinKeyEncoding(body, name), withPrivacy)
}

// KeyBody returns the key's body encoding, Marshal's output without the
// 32-byte Name, and the Name. Keys that differ only in Name have one body,
// so the body is what an owner posts on chain once and what
// UnmarshalPublicKey's memo remembers. The body is the key's stored one
// when that still fits, shared and read-only, and a fresh encoding of the
// points otherwise.
func (pk *PublicKey) KeyBody(withPrivacy bool) (body []byte, name [32]byte, err error) {
	if body = pk.stored(withPrivacy); body == nil {
		if body, err = pk.encodeBody(withPrivacy); err != nil {
			return nil, name, err
		}
	}
	return body, pk.Name.Bytes(), nil
}

// encodeBody encodes the key's body, Marshal's layout without Name, from
// its S and points.
func (pk *PublicKey) encodeBody(withPrivacy bool) ([]byte, error) {
	out := make([]byte, 0, pk.MarshalSize(withPrivacy)-32)
	out = append(out, byte(pk.S>>24), byte(pk.S>>16), byte(pk.S>>8), byte(pk.S))
	out = append(out, pk.Epsilon.Marshal()...)
	out = append(out, pk.Delta.Marshal()...)
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

// keyNameAt is where the 32-byte Name sits in a key encoding: after s and
// the two uncompressed G2 points.
const keyNameAt = 4 + 2*bn256.G2UncompressedSize

// splitKeyEncoding splits a key encoding (Marshal's output) into a fresh
// copy of its body, everything but the 32-byte Name, and the Name.
func splitKeyEncoding(enc []byte) (body []byte, name [32]byte) {
	name = [32]byte(enc[keyNameAt : keyNameAt+32])
	body = make([]byte, 0, len(enc)-32)
	return append(append(body, enc[:keyNameAt]...), enc[keyNameAt+32:]...), name
}

// UnmarshalPublicKey parses a serialized public key. withPrivacy must match
// the flag used at serialization time.
//
// Every check a key takes (ε and δ in the order-n subgroup of G2, canonical
// powers, EG1Eps of order n) is paid once per key body: a validated key is
// remembered by its encoding with the 32-byte Name cut out, so a provider
// handed the same owner's key with every file decodes only the Name after the
// first time. The memo holds at most keyMemoBytes of encodings, evicting the
// oldest first, and only keys that passed every check enter it.
//
// The returned key's Epsilon, Delta, Powers points and EG1Eps may therefore
// be shared with every other decode of the same body, on any goroutine: they
// are read-only. So is the body encoding the key keeps, the bytes it was
// decoded from minus Name, which Marshal and KeyBody serve. S and Name are
// the caller's own, as is the Powers slice itself.
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
	body, name := splitKeyEncoding(data)
	if shared := keyMemo.get(body); shared != nil {
		if err := pk.Name.SetBytes(name[:]); err != nil {
			return nil, err
		}
		pk.Epsilon, pk.Delta, pk.EG1Eps = shared.Epsilon, shared.Delta, shared.EG1Eps
		pk.Powers = slices.Clone(shared.Powers)
		pk.body = shared.body
		return pk, nil
	}
	if err := pk.decode(data, withPrivacy); err != nil {
		return nil, err
	}
	pk.body = newKeyBody(pk, body, withPrivacy)
	keyMemo.put(body, pk)
	return pk, nil
}

// decode fills in everything but S from a key encoding of the right size,
// validating every point. The parts are independent — ε and δ with their
// G2 order ladders, the Name, one square root per power and EG1Eps's order
// check — so they decode as tasks across GOMAXPROCS, and the error is the
// first in encoding order, the one a serial decode would meet.
func (pk *PublicKey) decode(data []byte, withPrivacy bool) error {
	const g2, g1 = bn256.G2UncompressedSize, bn256.G1CompressedSize
	const powersOff = keyNameAt + 32
	pk.Epsilon, pk.Delta = new(bn256.G2), new(bn256.G2)
	pk.Powers = make([]*bn256.G1, pk.S)
	// Tasks in encoding order: ε, δ, Name, the powers, then EG1Eps if sent.
	tasks := 3 + pk.S
	if withPrivacy {
		pk.EG1Eps = new(bn256.GT)
		tasks++
	}
	errs := make([]error, tasks)
	parallel.For(0, tasks, func(t int) {
		switch j := t - 3; {
		case t < 2:
			errs[t] = []*bn256.G2{pk.Epsilon, pk.Delta}[t].Unmarshal(data[4+t*g2 : 4+(t+1)*g2])
		case t == 2:
			errs[t] = pk.Name.SetBytes(data[keyNameAt:powersOff])
		case j < pk.S:
			pk.Powers[j] = new(bn256.G1)
			errs[t] = pk.Powers[j].UnmarshalCompressed(data[powersOff+j*g1 : powersOff+(j+1)*g1])
		default:
			errs[t] = pk.EG1Eps.UnmarshalCompressed(data[powersOff+pk.S*g1:])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if !withPrivacy {
		pk.EG1Eps = bn256.Pair(bn256.GenG1(), pk.Epsilon)
	}
	return nil
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
