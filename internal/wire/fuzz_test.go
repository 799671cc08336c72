package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder. The contract
// under fuzz: never panic, never allocate beyond MaxPayload for a single
// frame, and classify every malformed input as an error (clean EOF only at
// a frame boundary with no bytes consumed).
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, &Frame{Type: MsgHello, ID: 1, Payload: []byte{0, 0}})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Oversized declared length with no body behind it.
	huge := binary.BigEndian.AppendUint32(nil, headerRest+maxPayload+1)
	f.Add(huge)
	f.Add(bytes.Repeat([]byte{0xA5}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, err := ReadFrame(r)
		if err != nil {
			return
		}
		// A successfully decoded frame must re-encode to the exact bytes
		// consumed (canonical framing).
		consumed := len(data) - r.Len()
		var out bytes.Buffer
		if err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:consumed], out.Bytes())
		}
	})
}

// FuzzUnmarshalMessages drives every payload decoder with arbitrary bytes:
// none may panic, and any accepted value must re-marshal canonically.
func FuzzUnmarshalMessages(f *testing.F) {
	hello, _ := (&Hello{Node: "sp"}).Marshal()
	chal, _ := (&Challenge{Contract: "c", Chal: testChallenge()}).Marshal()
	proof, _ := (&Proof{Contract: "c", Proof: []byte{1, 2, 3}}).Marshal()
	errMsg, _ := (&Error{Code: 1, Message: "m"}).Marshal()
	shareReq, _ := (&ShareRequest{Key: "f/share/0"}).Marshal()
	shareData, _ := (&ShareData{Key: "f/share/0", Share: []byte{4, 5, 6}}).Marshal()
	accept, _, _ := smallAcceptAuditData(f)
	for _, s := range [][]byte{hello, chal, proof, errMsg, shareReq, shareData, accept, {}, bytes.Repeat([]byte{0xFF}, 80)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := UnmarshalHello(data); err == nil {
			if out, err := m.Marshal(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("hello not canonical: %x vs %x (%v)", data, out, err)
			}
		}
		if m, err := UnmarshalAccepted(data); err == nil {
			if out, err := m.Marshal(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("accepted not canonical: %x vs %x (%v)", data, out, err)
			}
		}
		if m, err := UnmarshalChallenge(data); err == nil {
			if out, err := m.Marshal(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("challenge not canonical: %x vs %x (%v)", data, out, err)
			}
		}
		if m, err := UnmarshalProof(data); err == nil {
			if out, err := m.Marshal(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("proof not canonical: %x vs %x (%v)", data, out, err)
			}
		}
		if m, err := UnmarshalError(data); err == nil {
			if out, err := m.Marshal(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("error not canonical: %x vs %x (%v)", data, out, err)
			}
		}
		if m, err := unmarshalPing(data); err == nil {
			if out, err := m.Marshal(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("ping not canonical: %x vs %x (%v)", data, out, err)
			}
		}
		if m, err := UnmarshalShareRequest(data); err == nil {
			if out, err := m.Marshal(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("share request not canonical: %x vs %x (%v)", data, out, err)
			}
		}
		if m, err := UnmarshalShareData(data); err == nil {
			if out, err := m.Marshal(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("share data not canonical: %x vs %x (%v)", data, out, err)
			}
		}
		// The nested core decoders validate dimensions before allocating.
		if m, err := UnmarshalAcceptAuditData(data); err == nil {
			if out, err := m.Marshal(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("audit data not canonical: %x vs %x (%v)", data, out, err)
			}
		}
	})
}

// TestReadFrameNoOverAllocation streams a frame that declares a huge length:
// the decoder must reject it without reading (or allocating) the body.
func TestReadFrameNoOverAllocation(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, headerRest+maxPayload+1)
	r := &countingReader{r: io.MultiReader(bytes.NewReader(hdr), neverEnding{})}
	_, err := ReadFrame(r)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if r.n > headerSize {
		t.Fatalf("decoder read %d bytes of an oversized frame, want <= %d", r.n, headerSize)
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// neverEnding yields zeros forever.
type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// unmarshalPing parses a ping payload.
func unmarshalPing(data []byte) (*Ping, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("%w: ping: %d bytes, want 8", ErrBadFrame, len(data))
	}
	return &Ping{Nonce: binary.BigEndian.Uint64(data)}, nil
}
