package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/parallel"
)

// Canonical payload encodings, one struct per message type. Strings (node
// names, contract addresses, error messages) are length-prefixed with a
// big-endian uint16 and capped at maxStringLen; nested blobs (public key,
// encoded file, authenticators) are length-prefixed with a uint32 and
// validated by their own core decoders. Every Unmarshal rejects trailing
// bytes, so there is exactly one encoding per value.

// maxStringLen bounds length-prefixed strings on the wire.
const maxStringLen = 1024

// Hello opens a connection in either direction: the client introduces
// itself and the server replies with the provider node's name. Version
// compatibility is enforced one layer down, by the frame header.
type Hello struct {
	Node string
}

// Marshal encodes the hello payload.
func (h *Hello) Marshal() ([]byte, error) {
	return appendString(nil, h.Node)
}

// UnmarshalHello parses a hello payload.
func UnmarshalHello(data []byte) (*Hello, error) {
	node, rest, err := readString(data)
	if err != nil {
		return nil, fmt.Errorf("%w: hello: %v", ErrBadFrame, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: hello: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return &Hello{Node: node}, nil
}

// AcceptAuditData hands a provider the full audit state for one contract:
// the public key (with the privacy element), the encoded file and the
// authenticators, plus the sample size for the provider-side validation.
// It is the one bulk transfer of an engagement; everything after it fits in
// a few hundred bytes per round.
type AcceptAuditData struct {
	Contract   chain.Address
	SampleSize uint32
	PublicKey  *core.PublicKey
	File       *core.EncodedFile
	Auths      []*core.Authenticator
}

// Marshal encodes the audit-data payload.
func (m *AcceptAuditData) Marshal() ([]byte, error) {
	out, err := appendString(nil, string(m.Contract))
	if err != nil {
		return nil, err
	}
	out = binary.BigEndian.AppendUint32(out, m.SampleSize)
	pk, err := m.PublicKey.Marshal(true)
	if err != nil {
		return nil, err
	}
	file, err := m.File.MarshalBinary()
	if err != nil {
		return nil, err
	}
	auths, err := core.MarshalAuthenticators(m.Auths)
	if err != nil {
		return nil, err
	}
	for _, blob := range [][]byte{pk, file, auths} {
		out = binary.BigEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out, nil
}

// UnmarshalAcceptAuditData parses an audit-data payload, running the core
// decoders (canonical points, validated dimensions) on each nested blob. The
// three decoders are independent and run concurrently across GOMAXPROCS
// goroutines; when several blobs are malformed, the error returned is the
// first in frame order — public key, then file, then authenticators — the
// one a serial decode would have stopped at.
func UnmarshalAcceptAuditData(data []byte) (*AcceptAuditData, error) {
	contract, rest, err := readString(data)
	if err != nil {
		return nil, fmt.Errorf("%w: audit data: %v", ErrBadFrame, err)
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: audit data: missing sample size", ErrBadFrame)
	}
	m := &AcceptAuditData{Contract: chain.Address(contract), SampleSize: binary.BigEndian.Uint32(rest[:4])}
	rest = rest[4:]
	blobs := make([][]byte, 3)
	for i := range blobs {
		if blobs[i], rest, err = readBlob(rest); err != nil {
			return nil, fmt.Errorf("%w: audit data: %v", ErrBadFrame, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: audit data: %d trailing bytes", ErrBadFrame, len(rest))
	}
	errs := make([]error, len(blobs))
	parallel.For(0, len(blobs), func(i int) {
		switch i {
		case 0:
			m.PublicKey, errs[i] = core.UnmarshalPublicKey(blobs[i], true)
		case 1:
			m.File, errs[i] = core.UnmarshalEncodedFile(blobs[i])
		default:
			m.Auths, errs[i] = core.UnmarshalAuthenticators(blobs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Accepted is the provider's acknowledgment of AcceptAuditData: the audit
// state validated and is retained under the given contract.
type Accepted struct {
	Contract chain.Address
}

// Marshal encodes the acknowledgment payload.
func (m *Accepted) Marshal() ([]byte, error) {
	return appendString(nil, string(m.Contract))
}

// UnmarshalAccepted parses an acknowledgment payload.
func UnmarshalAccepted(data []byte) (*Accepted, error) {
	contract, rest, err := readString(data)
	if err != nil {
		return nil, fmt.Errorf("%w: accepted: %v", ErrBadFrame, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: accepted: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return &Accepted{Contract: chain.Address(contract)}, nil
}

// Challenge asks the provider to prove possession for one open challenge.
// The challenge encoding is self-contained (it carries k), so the provider
// needs no contract state.
type Challenge struct {
	Contract chain.Address
	Chal     *core.Challenge
}

// Marshal encodes the challenge payload.
func (m *Challenge) Marshal() ([]byte, error) {
	out, err := appendString(nil, string(m.Contract))
	if err != nil {
		return nil, err
	}
	ch, err := m.Chal.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(out, ch...), nil
}

// UnmarshalChallenge parses a challenge payload.
func UnmarshalChallenge(data []byte) (*Challenge, error) {
	contract, rest, err := readString(data)
	if err != nil {
		return nil, fmt.Errorf("%w: challenge: %v", ErrBadFrame, err)
	}
	ch, err := core.UnmarshalChallengeBinary(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: challenge: %v", ErrBadFrame, err)
	}
	return &Challenge{Contract: chain.Address(contract), Chal: ch}, nil
}

// Proof answers a Challenge with the marshaled privacy-assured proof, ready
// for on-chain submission.
type Proof struct {
	Contract chain.Address
	Proof    []byte
}

// Marshal encodes the proof payload.
func (m *Proof) Marshal() ([]byte, error) {
	out, err := appendString(nil, string(m.Contract))
	if err != nil {
		return nil, err
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Proof)))
	return append(out, m.Proof...), nil
}

// UnmarshalProof parses a proof payload.
func UnmarshalProof(data []byte) (*Proof, error) {
	contract, rest, err := readString(data)
	if err != nil {
		return nil, fmt.Errorf("%w: proof: %v", ErrBadFrame, err)
	}
	proof, rest, err := readBlob(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: proof: %v", ErrBadFrame, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: proof: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return &Proof{Contract: chain.Address(contract), Proof: proof}, nil
}

// ShareRequest asks a holder for one stored erasure share by object key.
// The repair manager sends it to each surviving holder when reconstructing
// a lost share; the holder answers with ShareData or an Error carrying
// CodeNoShare.
type ShareRequest struct {
	Key string
}

// Marshal encodes the share-request payload.
func (m *ShareRequest) Marshal() ([]byte, error) {
	return appendString(nil, m.Key)
}

// UnmarshalShareRequest parses a share-request payload.
func UnmarshalShareRequest(data []byte) (*ShareRequest, error) {
	key, rest, err := readString(data)
	if err != nil {
		return nil, fmt.Errorf("%w: share request: %v", ErrBadFrame, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: share request: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return &ShareRequest{Key: key}, nil
}

// ShareData carries one erasure share. As a response it answers a
// ShareRequest; as a request it pushes a reconstructed share onto a
// replacement holder, which stores it and answers with Accepted (the
// Accepted address field echoes the key).
type ShareData struct {
	Key   string
	Share []byte
}

// Marshal encodes the share-data payload.
func (m *ShareData) Marshal() ([]byte, error) {
	out, err := appendString(nil, m.Key)
	if err != nil {
		return nil, err
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Share)))
	return append(out, m.Share...), nil
}

// UnmarshalShareData parses a share-data payload.
func UnmarshalShareData(data []byte) (*ShareData, error) {
	key, rest, err := readString(data)
	if err != nil {
		return nil, fmt.Errorf("%w: share data: %v", ErrBadFrame, err)
	}
	share, rest, err := readBlob(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: share data: %v", ErrBadFrame, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: share data: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return &ShareData{Key: key, Share: share}, nil
}

// Error codes carried by Error frames. The client maps them back onto the
// dsnaudit sentinel errors.
const (
	CodeInternal     uint32 = 1 // proving or validation failed server-side
	CodeBadRequest   uint32 = 2 // payload failed to decode
	CodeNoAuditState uint32 = 3 // provider holds no state for the contract
	CodeRejected     uint32 = 4 // provider rejected the owner's audit data
	CodeShuttingDown uint32 = 5 // server draining; safe to retry elsewhere
	CodeNoShare      uint32 = 6 // holder has no stored object for the key
	CodeOverloaded   uint32 = 7 // provider at its proving-admission limit; retry after the hint
)

// Error reports a failed request. It doubles as a Go error so server-side
// handlers can return it directly.
type Error struct {
	Code    uint32
	Message string

	// RetryAfter is the provider's backoff hint in blocks, meaningful with
	// CodeOverloaded (0 = caller's choice). It rides as an optional trailer
	// so pre-overload peers still decode the payload.
	RetryAfter uint32
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Message)
}

// Marshal encodes the error payload. The retry-after trailer is only
// emitted when set, keeping the encoding of every pre-existing error
// byte-identical to the previous wire revision.
func (e *Error) Marshal() ([]byte, error) {
	out := binary.BigEndian.AppendUint32(nil, e.Code)
	out, err := appendString(out, e.Message)
	if err != nil {
		return nil, err
	}
	if e.RetryAfter != 0 {
		out = binary.BigEndian.AppendUint32(out, e.RetryAfter)
	}
	return out, nil
}

// UnmarshalError parses an error payload, with or without the optional
// retry-after trailer; a trailer, when present, is nonzero.
func UnmarshalError(data []byte) (*Error, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: error: missing code", ErrBadFrame)
	}
	e := &Error{Code: binary.BigEndian.Uint32(data[:4])}
	msg, rest, err := readString(data[4:])
	if err != nil {
		return nil, fmt.Errorf("%w: error: %v", ErrBadFrame, err)
	}
	switch len(rest) {
	case 0:
	case 4:
		// Marshal omits a zero hint, so a zero trailer is a second
		// encoding of the trailer-less payload.
		if e.RetryAfter = binary.BigEndian.Uint32(rest); e.RetryAfter == 0 {
			return nil, fmt.Errorf("%w: error: zero retry-after trailer", ErrBadFrame)
		}
	default:
		return nil, fmt.Errorf("%w: error: %d trailing bytes", ErrBadFrame, len(rest))
	}
	e.Message = msg
	return e, nil
}

// appendString appends a uint16-length-prefixed string.
func appendString(out []byte, s string) ([]byte, error) {
	if len(s) > maxStringLen {
		return nil, fmt.Errorf("%w: string of %d bytes exceeds %d", ErrBadFrame, len(s), maxStringLen)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...), nil
}

// readString consumes a uint16-length-prefixed string and returns the rest.
func readString(data []byte) (string, []byte, error) {
	if len(data) < 2 {
		return "", nil, fmt.Errorf("missing string length")
	}
	n := int(binary.BigEndian.Uint16(data[:2]))
	if n > maxStringLen {
		return "", nil, fmt.Errorf("string of %d bytes exceeds %d", n, maxStringLen)
	}
	if len(data) < 2+n {
		return "", nil, fmt.Errorf("truncated string")
	}
	return string(data[2 : 2+n]), data[2+n:], nil
}

// readBlob consumes a uint32-length-prefixed byte blob and returns the rest.
func readBlob(data []byte) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("missing blob length")
	}
	n := binary.BigEndian.Uint32(data[:4])
	if uint64(n) > uint64(len(data)-4) {
		return nil, nil, fmt.Errorf("truncated blob: %d declared, %d present", n, len(data)-4)
	}
	return data[4 : 4+n], data[4+n:], nil
}
