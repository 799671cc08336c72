package core

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bn256"
)

func TestEncodedFileRoundTrip(t *testing.T) {
	data := make([]byte, 500)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	ef, err := EncodeFile(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ef.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalEncodedFile(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.S != ef.S || back.Length != ef.Length || back.NumChunks() != ef.NumChunks() {
		t.Fatalf("dimensions changed: %d/%d/%d vs %d/%d/%d",
			back.S, back.Length, back.NumChunks(), ef.S, ef.Length, ef.NumChunks())
	}
	if !bytes.Equal(back.Decode(), data) {
		t.Fatal("file bytes did not survive the round trip")
	}
	// Re-encoding must be byte-identical (canonical form).
	enc2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("encoding is not canonical")
	}
}

func TestUnmarshalEncodedFileRejects(t *testing.T) {
	ef, err := EncodeFile([]byte("some file data for the reject cases"), 2)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := ef.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing", func(b []byte) []byte { return append(b, 0) }},
		{"zero s", func(b []byte) []byte { binary.BigEndian.PutUint32(b[0:4], 0); return b }},
		{"huge d", func(b []byte) []byte { binary.BigEndian.PutUint32(b[12:16], 1<<23); return b }},
		{"length past blocks", func(b []byte) []byte { binary.BigEndian.PutUint64(b[4:12], 1<<40); return b }},
		{"non-canonical coeff", func(b []byte) []byte {
			for i := 16; i < 48; i++ {
				b[i] = 0xFF // >= the field modulus
			}
			return b
		}},
		{"short header", func(b []byte) []byte { return b[:10] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]byte(nil), valid...)
			if _, err := UnmarshalEncodedFile(tc.mutate(in)); err == nil {
				t.Fatal("malformed encoding accepted")
			}
		})
	}
}

func TestAuthenticatorsRoundTrip(t *testing.T) {
	sk, err := KeyGen(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ef, err := EncodeFile(make([]byte, 300), 2)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := MarshalAuthenticators(auths)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalAuthenticators(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(auths) {
		t.Fatalf("%d authenticators, want %d", len(back), len(auths))
	}
	for i := range back {
		if back[i].Index != i || !back[i].Sigma.Equal(auths[i].Sigma) {
			t.Fatalf("authenticator %d changed", i)
		}
	}
	// The decoded set must still verify against the key.
	if err := VerifyAuthenticators(sk.Pub, ef, back, nil); err != nil {
		t.Fatalf("decoded authenticators fail verification: %v", err)
	}

	// Rejections: swapped indices and truncation.
	bad := append([]byte(nil), enc...)
	binary.BigEndian.PutUint32(bad[4:8], 1)
	if _, err := UnmarshalAuthenticators(bad); err == nil {
		t.Fatal("index mismatch accepted")
	}
	if _, err := UnmarshalAuthenticators(enc[:len(enc)-5]); err == nil {
		t.Fatal("truncated set accepted")
	}
}

// TestUnmarshalAuthenticatorsFirstError: a set with a wrong index at record
// 3 and an off-curve point at record 7 (and the same two faults swapped)
// fails on record 3's fault with a serial decode's text, at one core and at
// two.
func TestUnmarshalAuthenticatorsFirstError(t *testing.T) {
	sk, err := KeyGen(2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ef, err := EncodeFile(make([]byte, 12*2*BlockSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := MarshalAuthenticators(auths)
	if err != nil {
		t.Fatal(err)
	}
	const rec = 4 + 64

	// An (x, y) whose record does not decode: record 1's point with another
	// last byte of y is off the curve.
	offCurve := append([]byte(nil), enc[4+rec+4:][:64]...)
	var pointErr error
	for b := 0; pointErr == nil; b++ {
		offCurve[len(offCurve)-1] = byte(b)
		pointErr = new(bn256.G1).Unmarshal(offCurve)
	}

	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, pointAt := range []int{7, 3} {
			indexAt := 10 - pointAt
			indexText := fmt.Sprintf("authenticator %d carries index 99", indexAt)
			bad := append([]byte(nil), enc...)
			binary.BigEndian.PutUint32(bad[4+indexAt*rec:], 99)
			copy(bad[4+pointAt*rec+4:], offCurve)
			_, err := UnmarshalAuthenticators(bad)
			switch {
			case err == nil:
				t.Errorf("GOMAXPROCS %d: two faulty records accepted", procs)
			case indexAt < pointAt && (!errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), indexText)):
				t.Errorf("GOMAXPROCS %d: %v, want record %d's %q", procs, err, indexAt, indexText)
			case pointAt < indexAt && err.Error() != pointErr.Error():
				t.Errorf("GOMAXPROCS %d: %v, want record %d's %v", procs, err, pointAt, pointErr)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if back, err := UnmarshalAuthenticators(enc); err != nil || len(back) != len(auths) {
		t.Fatalf("the intact set: %d authenticators, %v", len(back), err)
	}
}

func TestChallengeBinaryRejects(t *testing.T) {
	ch := &Challenge{K: 7}
	enc, err := ch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalChallengeBinary(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated challenge accepted")
	}
	zeroK := append([]byte(nil), enc...)
	binary.BigEndian.PutUint32(zeroK[len(zeroK)-4:], 0)
	if _, err := UnmarshalChallengeBinary(zeroK); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := (&Challenge{K: 0}).MarshalBinary(); err == nil {
		t.Fatal("marshal of k=0 accepted")
	}
}

// TestVerifyAuthenticatorsChunkSizeMismatch pins the guard that keeps a
// key and file which disagree on the chunk size — possible when the two
// arrive independently over a wire — from feeding mismatched slice lengths
// into MultiScalarMult, which panics. A remote provider must surface this
// as a rejection, never a crash.
func TestVerifyAuthenticatorsChunkSizeMismatch(t *testing.T) {
	sk, err := KeyGen(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	ef, err := EncodeFile(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	auths := make([]*Authenticator, ef.NumChunks()) // never dereferenced
	err = VerifyAuthenticators(sk.Pub, ef, auths, []int{0})
	if err == nil {
		t.Fatal("mismatched chunk sizes accepted")
	}
	if !errors.Is(err, errBadParameters) {
		t.Fatalf("error = %v, want ErrBadParameters", err)
	}
}
