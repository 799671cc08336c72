// Package wire implements the framed wire protocol spoken between the audit
// driver and remote storage providers (dsnaudit/remote).
//
// Every frame on the wire is
//
//	length  uint32 BE  // bytes after this word: 10-byte header rest + payload
//	version uint8      // framing version; peers reject any mismatch
//	type    uint8      // message type (Hello, AcceptAuditData, ...)
//	id      uint64 BE  // request ID; a response echoes its request's ID
//	payload []byte     // the message-type-specific canonical encoding
//
// The request ID is what lets many engagements multiplex one TCP
// connection: a server answers requests out of order and in parallel, and
// the client routes each response frame back to its caller by ID.
//
// Compatibility rule: the version byte is bumped on any change to the frame
// layout or to a payload encoding, and peers refuse frames whose version
// differs from their own (ErrVersion) — there is no negotiation, so mixed
// deployments must upgrade the provider fleet and the drivers together.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// Version is the framing version byte. See the package comment for the
	// compatibility rule. v2 added the repair subsystem's share-transfer
	// messages (ShareRequest/ShareData). v3: 128-bit challenge coefficients
	// (prf.Coefficients) -- the Challenge payload is unchanged, but a v2 peer
	// expands it to other coefficients, so an honest v2 provider would be
	// slashed; the bump makes that a Hello-time ErrVersion instead.
	Version = 3

	// HeaderSize is the fixed frame prefix: length word, version, type and
	// request ID.
	HeaderSize = 4 + 1 + 1 + 8

	// headerRest is the part of the header the length word counts.
	headerRest = HeaderSize - 4

	// MaxPayload bounds a frame's payload. The largest legitimate frame is
	// an AcceptAuditData carrying a whole encoded file; 64 MiB covers the
	// evaluation range with margin while keeping a hostile length field
	// from driving a decoder allocation.
	MaxPayload = 64 << 20
)

// Type identifies a frame's message type.
type Type uint8

// Message types. Requests flow driver -> provider; each response echoes the
// request ID. AcceptAuditData is answered by Accepted, Challenge by Proof,
// Hello by Hello and Ping by Ping; Error answers any request that failed.
// The repair subsystem's share transfers reuse the same shape: ShareRequest
// is answered by ShareData, and ShareData sent as a request is a share
// *push* (re-placement onto a fresh holder) answered by Accepted, whose
// address field carries the object key back.
const (
	MsgHello           Type = 1
	MsgAcceptAuditData Type = 2
	MsgAccepted        Type = 3
	MsgChallenge       Type = 4
	MsgProof           Type = 5
	MsgError           Type = 6
	MsgPing            Type = 7
	MsgShareRequest    Type = 8
	MsgShareData       Type = 9
)

// String renders the message type name.
func (t Type) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgAcceptAuditData:
		return "AcceptAuditData"
	case MsgAccepted:
		return "Accepted"
	case MsgChallenge:
		return "Challenge"
	case MsgProof:
		return "Proof"
	case MsgError:
		return "Error"
	case MsgPing:
		return "Ping"
	case MsgShareRequest:
		return "ShareRequest"
	case MsgShareData:
		return "ShareData"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// valid reports whether t is a known message type.
func (t Type) valid() bool { return t >= MsgHello && t <= MsgShareData }

// Valid reports whether t is a known message type; instrumentation that
// indexes per-type series by Type uses it to reject out-of-range values.
func (t Type) Valid() bool { return t.valid() }

// Framing errors. ErrFrameTooLarge and ErrVersion wrap ErrBadFrame, so
// errors.Is(err, ErrBadFrame) matches every framing-level rejection.
var (
	ErrBadFrame      = errors.New("wire: bad frame")
	ErrFrameTooLarge = fmt.Errorf("%w: payload exceeds %d bytes", ErrBadFrame, MaxPayload)
	ErrVersion       = fmt.Errorf("%w: framing version mismatch", ErrBadFrame)
)

// Frame is one decoded wire frame.
type Frame struct {
	Type    Type
	ID      uint64
	Payload []byte
}

// WriteFrame encodes f and writes it. The whole frame is assembled into one
// buffer and issued as a single Write call, so conn-level fault injectors
// (remote.FaultTransport) observe exactly one Write per frame and can drop,
// duplicate or corrupt at frame granularity.
func WriteFrame(w io.Writer, f *Frame) error {
	if len(f.Payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	if !f.Type.valid() {
		return fmt.Errorf("%w: unknown message type %d", ErrBadFrame, f.Type)
	}
	buf := make([]byte, HeaderSize+len(f.Payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(headerRest+len(f.Payload)))
	buf[4] = Version
	buf[5] = byte(f.Type)
	binary.BigEndian.PutUint64(buf[6:14], f.ID)
	copy(buf[HeaderSize:], f.Payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads and validates one frame. A clean connection close between
// frames surfaces as io.EOF; every malformed input — truncated header or
// payload, short or oversized length, unknown version or type — returns an
// error wrapping ErrBadFrame before any length-derived allocation happens,
// so no input can panic the decoder or balloon memory.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated length: %v", ErrBadFrame, err)
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length < headerRest {
		return nil, fmt.Errorf("%w: length %d shorter than header", ErrBadFrame, length)
	}
	if length-headerRest > MaxPayload {
		return nil, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrVersion, hdr[4], Version)
	}
	f := &Frame{Type: Type(hdr[5]), ID: binary.BigEndian.Uint64(hdr[6:14])}
	if !f.Type.valid() {
		return nil, fmt.Errorf("%w: unknown message type %d", ErrBadFrame, hdr[5])
	}
	f.Payload = make([]byte, length-headerRest)
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	return f, nil
}
