package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bn256"
	"repro/internal/parallel"
	"repro/internal/prf"
)

// Wire-transfer encodings for the audit-data handoff between processes.
// The on-chain encodings elsewhere in this package are sized for calldata
// (Challenge.Marshal drops k because the contract already stores it); a
// remote storage provider has no contract state to lean on, so everything
// below is self-contained: a peer can reconstruct the challenge, the
// encoded file and the authenticators from the bytes alone.

// challengeBinarySize is the self-contained challenge encoding size:
// C1 || C2 || R || K, with K as a 4-byte big-endian integer.
const challengeBinarySize = 3*prf.SeedSize + 4

// maxWireChunks bounds the chunk count a decoder will accept, so a hostile
// length field cannot drive allocation beyond what the frame itself holds.
const maxWireChunks = 1 << 24

// MarshalBinary encodes the challenge self-contained as C1 || C2 || R || K
// (52 bytes). Unlike Marshal — the 48-byte on-chain form, where k lives in
// contract state — this carries k, so a remote prover can expand the
// challenge with no out-of-band agreement.
func (c *Challenge) MarshalBinary() ([]byte, error) {
	if c.K < 1 {
		return nil, fmt.Errorf("%w: k = %d", errBadParameters, c.K)
	}
	out := make([]byte, 0, challengeBinarySize)
	out = append(out, c.C1[:]...)
	out = append(out, c.C2[:]...)
	out = append(out, c.R[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(c.K))
	return out, nil
}

// UnmarshalChallengeBinary parses the 52-byte self-contained challenge
// encoding produced by MarshalBinary.
func UnmarshalChallengeBinary(data []byte) (*Challenge, error) {
	if len(data) != challengeBinarySize {
		return nil, ErrMalformed
	}
	k := binary.BigEndian.Uint32(data[3*prf.SeedSize:])
	if k < 1 || k > maxWireChunks {
		return nil, fmt.Errorf("%w: challenge k = %d", ErrMalformed, k)
	}
	ch := &Challenge{K: int(k)}
	copy(ch.C1[:], data[0:prf.SeedSize])
	copy(ch.C2[:], data[prf.SeedSize:2*prf.SeedSize])
	copy(ch.R[:], data[2*prf.SeedSize:3*prf.SeedSize])
	return ch, nil
}

// MarshalBinary encodes the file as s || length || d || coefficients, with
// every coefficient in its canonical 32-byte form. It is the bulk payload of
// the audit-data transfer to a remote provider.
func (ef *EncodedFile) MarshalBinary() ([]byte, error) {
	d := ef.NumChunks()
	if ef.S < 1 || d < 1 {
		return nil, fmt.Errorf("%w: s=%d, d=%d", errBadParameters, ef.S, d)
	}
	out := make([]byte, 0, 16+d*ef.S*32)
	out = binary.BigEndian.AppendUint32(out, uint32(ef.S))
	out = binary.BigEndian.AppendUint64(out, uint64(ef.Length))
	out = binary.BigEndian.AppendUint32(out, uint32(d))
	for _, chunk := range ef.Chunks {
		if len(chunk.Coeffs) != ef.S {
			return nil, fmt.Errorf("%w: chunk has %d coefficients, want %d", errBadParameters, len(chunk.Coeffs), ef.S)
		}
		for _, c := range chunk.Coeffs {
			b := c.Bytes()
			out = append(out, b[:]...)
		}
	}
	return out, nil
}

// UnmarshalEncodedFile parses an encoded file, validating the dimensions
// against the actual byte count before allocating and rejecting
// non-canonical coefficients.
func UnmarshalEncodedFile(data []byte) (*EncodedFile, error) {
	if len(data) < 16 {
		return nil, ErrMalformed
	}
	s := binary.BigEndian.Uint32(data[0:4])
	length := binary.BigEndian.Uint64(data[4:12])
	d := binary.BigEndian.Uint32(data[12:16])
	if s < 1 || s > 1<<20 || d < 1 || d > maxWireChunks {
		return nil, fmt.Errorf("%w: file dimensions s=%d, d=%d", ErrMalformed, s, d)
	}
	// The size check precedes any allocation sized from the header, so a
	// forged header cannot over-allocate.
	want := 16 + int64(s)*int64(d)*32
	if int64(len(data)) != want {
		return nil, fmt.Errorf("%w: %d file bytes, want %d", ErrMalformed, len(data), want)
	}
	if length > uint64(s)*uint64(d)*BlockSize {
		return nil, fmt.Errorf("%w: declared length %d exceeds %d blocks", ErrMalformed, length, uint64(s)*uint64(d))
	}
	blocks := make([]bn256.Scalar, int(s)*int(d))
	for i := range blocks {
		if err := blocks[i].SetBytes(data[16+32*i : 48+32*i]); err != nil {
			return nil, err
		}
	}
	return NewEncodedFile(int(s), int(length), blocks), nil
}

// MarshalAuthenticators encodes the per-chunk authenticators as a count
// followed by index || compressed-sigma records.
func MarshalAuthenticators(auths []*Authenticator) ([]byte, error) {
	if len(auths) > maxWireChunks {
		return nil, fmt.Errorf("%w: %d authenticators", errBadParameters, len(auths))
	}
	out := make([]byte, 0, 4+len(auths)*(4+bn256.G1CompressedSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(auths)))
	for _, a := range auths {
		out = binary.BigEndian.AppendUint32(out, uint32(a.Index))
		out = append(out, a.Sigma.MarshalCompressed()...)
	}
	return out, nil
}

// UnmarshalAuthenticators parses an authenticator set, enforcing that the
// indices are the positions (the invariant every verifier relies on) and
// that every point decodes canonically.
func UnmarshalAuthenticators(data []byte) ([]*Authenticator, error) {
	if len(data) < 4 {
		return nil, ErrMalformed
	}
	n := binary.BigEndian.Uint32(data[0:4])
	if n > maxWireChunks {
		return nil, fmt.Errorf("%w: %d authenticators", ErrMalformed, n)
	}
	const rec = 4 + bn256.G1CompressedSize
	if int64(len(data)) != 4+int64(n)*rec {
		return nil, fmt.Errorf("%w: %d authenticator bytes, want %d", ErrMalformed, len(data), 4+int64(n)*rec)
	}
	// A point's square root is most of a record's cost: the records decode
	// across the cores into index-keyed slots, and the first error in record
	// order is the one returned, as a serial decode would.
	auths := make([]*Authenticator, n)
	errs := make([]error, n)
	parallel.For(0, int(n), func(i int) {
		off := 4 + i*rec
		if idx := binary.BigEndian.Uint32(data[off : off+4]); int(idx) != i {
			errs[i] = fmt.Errorf("%w: authenticator %d carries index %d", ErrMalformed, i, idx)
			return
		}
		sigma := new(bn256.G1)
		if err := sigma.UnmarshalCompressed(data[off+4 : off+rec]); err != nil {
			errs[i] = err
			return
		}
		auths[i] = &Authenticator{Index: i, Sigma: sigma}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return auths, nil
}
