package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: MsgHello, ID: 1, Payload: []byte{0x00, 0x03, 'a', 'b', 'c'}},
		{Type: MsgPing, ID: 0xdeadbeefcafebabe, Payload: make([]byte, 8)},
		{Type: MsgProof, ID: 0, Payload: nil},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

func TestFrameSingleWrite(t *testing.T) {
	// remote's test fault transport (fault_test.go) depends on one Write call per frame.
	w := &writeCounter{}
	if err := WriteFrame(w, &Frame{Type: MsgPing, ID: 7, Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("WriteFrame issued %d Write calls, want 1", w.calls)
	}
}

type writeCounter struct{ calls int }

func (w *writeCounter) Write(p []byte) (int, error) { w.calls++; return len(p), nil }

func TestReadFrameRejects(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Frame{Type: MsgHello, ID: 42, Payload: []byte{0, 0}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"short length", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[:4], headerRest-1)
			return b
		}, ErrBadFrame},
		{"oversized length", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[:4], headerRest+maxPayload+1)
			return b
		}, errFrameTooLarge},
		{"bad version", func(b []byte) []byte { b[4] = Version + 1; return b }, errVersion},
		// A version-3 peer sends AcceptAuditData with compressed
		// authenticators; it must be refused at the frame, not misparsed.
		{"version 3", func(b []byte) []byte { b[4] = 3; return b }, errVersion},
		{"unknown type", func(b []byte) []byte { b[5] = 0xEE; return b }, ErrBadFrame},
		{"truncated header", func(b []byte) []byte { return b[:headerSize-3] }, ErrBadFrame},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.mutate(valid())))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
			// Every framing rejection must also match the umbrella sentinel.
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%v does not wrap ErrBadFrame", err)
			}
		})
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	// The oversized payload must be rejected before any buffer is built;
	// use a huge-but-unallocated length via a sliced zero payload.
	f := &Frame{Type: MsgProof, ID: 1, Payload: make([]byte, maxPayload+1)}
	if err := WriteFrame(io.Discard, f); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}
