package core

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/bn256"
	"repro/internal/prf"
)

// Owner-side persistence: the data owner must retain (x, alpha, name, s)
// across sessions to extend contracts or re-derive authenticators; losing
// them is unrecoverable (by design -- no one else may hold them). The
// private-key encoding embeds the full public key so a restored owner needs
// no other state.

// privateKeyHeader distinguishes the encoding from other 32-byte-aligned
// blobs and versions it.
var privateKeyHeader = []byte{'d', 's', 'n', 1}

// MarshalPrivateKey serializes sk as header || x || alpha || pk(with GT).
func MarshalPrivateKey(sk *PrivateKey) ([]byte, error) {
	pk, err := sk.Pub.Marshal(true)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(privateKeyHeader)+64+len(pk))
	out = append(out, privateKeyHeader...)
	x, alpha := sk.X.Bytes(), sk.Alpha.Bytes()
	out = append(out, x[:]...)
	out = append(out, alpha[:]...)
	out = append(out, pk...)
	return out, nil
}

// UnmarshalPrivateKey restores a serialized key, validating that the
// embedded public key is consistent with the secrets (a corrupted or
// spliced file fails loudly rather than producing bad authenticators).
func UnmarshalPrivateKey(data []byte) (*PrivateKey, error) {
	if len(data) < len(privateKeyHeader)+64 {
		return nil, ErrMalformed
	}
	for i, b := range privateKeyHeader {
		if data[i] != b {
			return nil, ErrMalformed
		}
	}
	off := len(privateKeyHeader)
	sk := new(PrivateKey)
	if err := sk.X.SetBytes(data[off : off+32]); err != nil {
		return nil, err
	}
	if err := sk.Alpha.SetBytes(data[off+32 : off+64]); err != nil {
		return nil, err
	}
	pub, err := UnmarshalPublicKey(data[off+64:], true)
	if err != nil {
		return nil, err
	}
	sk.Pub = pub
	if err := sk.validate(); err != nil {
		return nil, err
	}
	return sk, nil
}

// validate cross-checks secrets against the embedded public key.
func (sk *PrivateKey) validate() error {
	if sk.X.IsZero() || sk.Alpha.IsZero() {
		return ErrMalformed
	}
	// Epsilon = g2^x and the first two powers pin down (x, alpha).
	eps := new(bn256.G2).ScalarBaseMult(sk.X.Big())
	if !eps.Equal(sk.Pub.Epsilon) {
		return ErrMalformed
	}
	var ax bn256.Scalar
	delta := new(bn256.G2).ScalarBaseMult(ax.Mul(&sk.Alpha, &sk.X).Big())
	if !delta.Equal(sk.Pub.Delta) {
		return ErrMalformed
	}
	if len(sk.Pub.Powers) > 1 {
		p1 := new(bn256.G1).ScalarBaseMult(sk.Alpha.Big())
		if !p1.Equal(sk.Pub.Powers[1]) {
			return ErrMalformed
		}
	}
	return nil
}

// Provider-side persistence: a storage provider auditing hundreds of
// thousands of contracts cannot keep every engagement's encoded file and
// authenticators resident. The audit-state encoding below is the spill
// format — written once, when the engagement's state is installed, and read
// back whenever a challenge finds it paged out. Rehydration must be exact
// (proofs are byte-deterministic functions of this state), so the encoding
// reuses the canonical wire codecs and seals the whole record under a
// checksum: a truncated, bit-flipped or garbage spill file is an error, never
// a panic and never an almost-right prover.

// auditStateHeader distinguishes spilled audit state from the other
// persisted encodings and versions it.
var auditStateHeader = []byte{'d', 's', 'n', 'a', 1}

// MarshalAuditState serializes one engagement's provider-side audit state
// (the encoded file and its authenticators) as
//
//	header || len(file) || file || auths || sha256(everything before)
//
// The public key is deliberately not part of the record: providers share one
// key across every engagement of the same owner, so spilling it per
// engagement would multiply the resident win away. Callers keep the key in
// their index and reattach it on load.
func MarshalAuditState(ef *EncodedFile, auths []*Authenticator) ([]byte, error) {
	if len(auths) != ef.NumChunks() {
		return nil, fmt.Errorf("%w: %d authenticators for %d chunks", ErrBadParameters, len(auths), ef.NumChunks())
	}
	fileBytes, err := ef.MarshalBinary()
	if err != nil {
		return nil, err
	}
	authBytes, err := MarshalAuthenticators(auths)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(auditStateHeader)+4+len(fileBytes)+len(authBytes)+sha256.Size)
	out = append(out, auditStateHeader...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(fileBytes)))
	out = append(out, fileBytes...)
	out = append(out, authBytes...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...), nil
}

// UnmarshalAuditState restores a spilled audit-state record. The checksum is
// verified before any structural decoding, so corruption of any kind —
// truncation, garbage, a flipped coefficient bit — surfaces as ErrMalformed
// rather than reaching the point decoders; the nested codecs then re-validate
// dimensions, canonical coefficients and on-curve points, and the
// file/authenticator counts are cross-checked the way NewProver requires.
func UnmarshalAuditState(data []byte) (*EncodedFile, []*Authenticator, error) {
	minLen := len(auditStateHeader) + 4 + sha256.Size
	if len(data) < minLen {
		return nil, nil, fmt.Errorf("%w: audit state of %d bytes", ErrMalformed, len(data))
	}
	for i, b := range auditStateHeader {
		if data[i] != b {
			return nil, nil, fmt.Errorf("%w: bad audit-state header", ErrMalformed)
		}
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(body)
	if subtle.ConstantTimeCompare(sum, want[:]) != 1 {
		return nil, nil, fmt.Errorf("%w: audit-state checksum mismatch", ErrMalformed)
	}
	off := len(auditStateHeader)
	fileLen := binary.BigEndian.Uint32(body[off : off+4])
	off += 4
	if uint64(fileLen) > uint64(len(body)-off) {
		return nil, nil, fmt.Errorf("%w: audit state declares %d file bytes, %d present", ErrMalformed, fileLen, len(body)-off)
	}
	ef, err := UnmarshalEncodedFile(body[off : off+int(fileLen)])
	if err != nil {
		return nil, nil, err
	}
	auths, err := UnmarshalAuthenticators(body[off+int(fileLen):])
	if err != nil {
		return nil, nil, err
	}
	if len(auths) != ef.NumChunks() {
		return nil, nil, fmt.Errorf("%w: %d authenticators for %d chunks", ErrMalformed, len(auths), ef.NumChunks())
	}
	return ef, auths, nil
}

// SaveAuditState writes one engagement's audit state to path atomically
// (whole tmp write + rename), in the MarshalAuditState encoding. The
// restart path uses it to stash the owner's audit snapshot once at setup
// and reuse it on resume instead of re-encoding the file.
func SaveAuditState(path string, ef *EncodedFile, auths []*Authenticator) error {
	data, err := MarshalAuditState(ef, auths)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadAuditState reads an audit-state snapshot written by SaveAuditState,
// with UnmarshalAuditState's full corruption discipline.
func LoadAuditState(path string) (*EncodedFile, []*Authenticator, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return UnmarshalAuditState(data)
}

// UnmarshalChallenge parses the 48-byte on-chain challenge encoding
// produced by Challenge.Marshal. k is carried in contract state, so the
// caller supplies it.
func UnmarshalChallenge(data []byte, k int) (*Challenge, error) {
	if len(data) != 3*prf.SeedSize {
		return nil, ErrMalformed
	}
	if k < 1 {
		return nil, ErrBadParameters
	}
	ch := &Challenge{K: k}
	copy(ch.C1[:], data[0:prf.SeedSize])
	copy(ch.C2[:], data[prf.SeedSize:2*prf.SeedSize])
	copy(ch.R[:], data[2*prf.SeedSize:])
	return ch, nil
}
