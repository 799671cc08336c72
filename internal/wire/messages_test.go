package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bn256"
	"repro/internal/core"
	"repro/internal/prf"
)

// fixedReader yields a repeating deterministic byte pattern, pinning the key
// material the AcceptAuditData golden vector is built from.
type fixedReader struct{ ctr byte }

func (r *fixedReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.ctr
		r.ctr = r.ctr*31 + 7
	}
	return len(p), nil
}

// testChallenge is the deterministic challenge every vector uses.
func testChallenge() *core.Challenge {
	ch := &core.Challenge{K: 300}
	for i := 0; i < prf.SeedSize; i++ {
		ch.C1[i] = byte(i)
		ch.C2[i] = byte(0x10 + i)
		ch.R[i] = byte(0x20 + i)
	}
	return ch
}

// goldenFrame encodes a full frame (header + payload) as hex.
func goldenFrame(t *testing.T, typ Type, id uint64, payload []byte, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: typ, ID: id, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(buf.Bytes())
}

// TestGoldenVectors pins the full frame encoding of every message type.
// These hex strings are the wire format: a change here is a protocol break
// and must come with a Version bump (see the package comment).
func TestGoldenVectors(t *testing.T) {
	hello, errHello := (&Hello{Node: "sp-00"}).Marshal()
	accepted, errAccepted := (&Accepted{Contract: "audit:o:p:f"}).Marshal()
	chal, errChal := (&Challenge{Contract: "audit:o:p:f", Chal: testChallenge()}).Marshal()
	proof, errProof := (&Proof{Contract: "audit:o:p:f", Proof: []byte{0xAA, 0xBB, 0xCC}}).Marshal()
	wireErr, errErr := (&Error{Code: CodeNoAuditState, Message: "no audit state"}).Marshal()
	ping, errPing := (&Ping{Nonce: 0x0102030405060708}).Marshal()
	shareReq, errShareReq := (&ShareRequest{Key: "f/share/0"}).Marshal()
	shareData, errShareData := (&ShareData{Key: "f/share/0", Share: []byte{0xDE, 0xAD, 0xBE, 0xEF}}).Marshal()

	vectors := []struct {
		name string
		got  string
		want string
	}{
		{"Hello", goldenFrame(t, MsgHello, 1, hello, errHello),
			"0000001104010000000000000001000573702d3030"},
		{"Accepted", goldenFrame(t, MsgAccepted, 2, accepted, errAccepted),
			"0000001704030000000000000002000b61756469743a6f3a703a66"},
		{"Challenge", goldenFrame(t, MsgChallenge, 3, chal, errChal),
			"0000004b04040000000000000003000b61756469743a6f3a703a66" +
				"000102030405060708090a0b0c0d0e0f" +
				"101112131415161718191a1b1c1d1e1f" +
				"202122232425262728292a2b2c2d2e2f" +
				"0000012c"},
		{"Proof", goldenFrame(t, MsgProof, 4, proof, errProof),
			"0000001e04050000000000000004000b61756469743a6f3a703a6600000003aabbcc"},
		{"Error", goldenFrame(t, MsgError, 5, wireErr, errErr),
			"0000001e0406000000000000000500000003000e6e6f206175646974207374617465"},
		{"Ping", goldenFrame(t, MsgPing, 6, ping, errPing),
			"0000001204070000000000000006" + "0102030405060708"},
		{"ShareRequest", goldenFrame(t, MsgShareRequest, 7, shareReq, errShareReq),
			"000000150408" + "0000000000000007" + "0009662f73686172652f30"},
		{"ShareData", goldenFrame(t, MsgShareData, 8, shareData, errShareData),
			"0000001d0409" + "0000000000000008" + "0009662f73686172652f30" + "00000004deadbeef"},
	}
	for _, v := range vectors {
		if v.got != v.want {
			t.Errorf("%s golden mismatch:\n got  %s\n want %s", v.name, v.got, v.want)
		}
	}
}

// TestGoldenAcceptAuditData pins the bulk transfer's format via a digest:
// the payload is megabytes-scale in production, so the vector is the
// SHA-256 of a deterministically keyed small instance.
func TestGoldenAcceptAuditData(t *testing.T) {
	rng := &fixedReader{}
	sk, err := core.KeyGen(2, rng)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("golden-vector file contents 0123456789")
	ef, err := core.EncodeFile(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	auths := make([]*core.Authenticator, ef.NumChunks())
	for i := range auths {
		auths[i] = &core.Authenticator{Index: i, Sigma: new(bn256.G1).ScalarBaseMult(big.NewInt(int64(i + 3)))}
	}
	msg := &AcceptAuditData{
		Contract:   "audit:owner:sp-00:file",
		SampleSize: 8,
		PublicKey:  sk.Pub,
		File:       ef,
		Auths:      auths,
	}
	payload, err := msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256(payload)
	const want = "6eafcbcfa53edfe159c118c61a329af742e52cb655a99f2b7b170dfcb99e40f4"
	if got := hex.EncodeToString(digest[:]); got != want {
		t.Errorf("AcceptAuditData digest mismatch:\n got  %s (payload %d bytes)\n want %s", got, len(payload), want)
	}

	// And the payload must round-trip losslessly.
	back, err := UnmarshalAcceptAuditData(payload)
	if err != nil {
		t.Fatal(err)
	}
	if back.Contract != msg.Contract || back.SampleSize != msg.SampleSize {
		t.Fatalf("header mismatch: %+v", back)
	}
	if !bytes.Equal(back.File.Decode(), data) {
		t.Fatal("file did not survive the round trip")
	}
	if len(back.Auths) != len(auths) || !back.Auths[0].Sigma.Equal(auths[0].Sigma) {
		t.Fatal("authenticators did not survive the round trip")
	}
	pkGot, err := back.PublicKey.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	pkWant, err := msg.PublicKey.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkGot, pkWant) {
		t.Fatal("public key did not survive the round trip")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	t.Run("Hello", func(t *testing.T) {
		b, err := (&Hello{Node: "node-x"}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalHello(b)
		if err != nil || got.Node != "node-x" {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("Challenge", func(t *testing.T) {
		want := &Challenge{Contract: "c", Chal: testChallenge()}
		b, err := want.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalChallenge(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Contract != want.Contract || !reflect.DeepEqual(got.Chal, want.Chal) {
			t.Fatalf("got %+v", got)
		}
	})
	t.Run("Error", func(t *testing.T) {
		b, err := (&Error{Code: CodeInternal, Message: "boom"}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalError(b)
		if err != nil || got.Code != CodeInternal || got.Message != "boom" {
			t.Fatalf("got %+v, %v", got, err)
		}
		if got.RetryAfter != 0 {
			t.Fatalf("legacy error grew a retry-after hint: %d", got.RetryAfter)
		}
	})
	t.Run("ErrorRetryAfter", func(t *testing.T) {
		want := &Error{Code: CodeOverloaded, Message: "at capacity", RetryAfter: 12}
		b, err := want.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalError(b)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, %v", got, err)
		}
		// The hint is a fixed 4-byte trailer: any other trailing length is a
		// framing error, not silently ignored bytes.
		if _, err := UnmarshalError(append(b, 0)); err == nil {
			t.Fatal("accepted error payload with 5 trailing bytes")
		}
		// Legacy encoders omit the trailer entirely; the zero hint must not
		// change the bytes they produce.
		legacy, err := (&Error{Code: CodeOverloaded, Message: "at capacity"}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(legacy) != len(b)-4 {
			t.Fatalf("zero retry-after changed the encoding: %d vs %d bytes", len(legacy), len(b))
		}
	})
	t.Run("Proof", func(t *testing.T) {
		b, err := (&Proof{Contract: "c", Proof: bytes.Repeat([]byte{7}, 288)}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalProof(b)
		if err != nil || got.Contract != "c" || len(got.Proof) != 288 {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("Ping", func(t *testing.T) {
		b, err := (&Ping{Nonce: 99}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := unmarshalPing(b)
		if err != nil || got.Nonce != 99 {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("ShareRequest", func(t *testing.T) {
		b, err := (&ShareRequest{Key: "archive/share/3"}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalShareRequest(b)
		if err != nil || got.Key != "archive/share/3" {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("ShareData", func(t *testing.T) {
		want := &ShareData{Key: "archive/share/3", Share: bytes.Repeat([]byte{0x5A}, 4096)}
		b, err := want.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalShareData(b)
		if err != nil || got.Key != want.Key || !bytes.Equal(got.Share, want.Share) {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("ShareDataEmpty", func(t *testing.T) {
		// A zero-length share is a legal (if useless) object; the encoding
		// must distinguish it from a missing blob.
		b, err := (&ShareData{Key: "k"}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalShareData(b)
		if err != nil || got.Key != "k" || len(got.Share) != 0 {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
}

func TestMessageRejectsTrailingBytes(t *testing.T) {
	hello, err := (&Hello{Node: "n"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalHello(append(hello, 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
	ping, err := (&Ping{Nonce: 1}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshalPing(append(ping, 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
	req, err := (&ShareRequest{Key: "k"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalShareRequest(append(req, 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
	sd, err := (&ShareData{Key: "k", Share: []byte{1}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalShareData(append(sd, 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// TestChallengeCarriesK pins the satellite fix this package exists for: the
// wire challenge is self-contained, k included, unlike the 48-byte on-chain
// form.
func TestChallengeCarriesK(t *testing.T) {
	ch := testChallenge()
	onChain := ch.Marshal()
	if len(onChain) != 48 {
		t.Fatalf("on-chain challenge is %d bytes, want 48", len(onChain))
	}
	wire, err := ch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 52 {
		t.Fatalf("wire challenge is %d bytes, want 52 (the on-chain 48 and a 4-byte k)", len(wire))
	}
	back, err := core.UnmarshalChallengeBinary(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != ch.K {
		t.Fatalf("k did not survive: got %d, want %d", back.K, ch.K)
	}
	if !reflect.DeepEqual(back, ch) {
		t.Fatalf("challenge mismatch: %+v vs %+v", back, ch)
	}
}

// smallAcceptAuditData is a well-formed audit-data payload small enough to
// seed a fuzzer: a chunk size of 2, three chunks and their authenticators.
// It also returns where the nested public-key and authenticator blobs lie in
// the payload, as [start, end) offsets.
func smallAcceptAuditData(tb testing.TB) (payload []byte, pk, auths [2]int) {
	tb.Helper()
	sk, err := core.KeyGen(2, &fixedReader{})
	if err != nil {
		tb.Fatal(err)
	}
	ef, err := core.EncodeFile(bytes.Repeat([]byte("small"), 30), 2)
	if err != nil {
		tb.Fatal(err)
	}
	if ef.NumChunks() != 3 {
		tb.Fatalf("%d chunks, want 3", ef.NumChunks())
	}
	sigmas, err := core.Setup(sk, ef)
	if err != nil {
		tb.Fatal(err)
	}
	msg := &AcceptAuditData{Contract: "c", SampleSize: 2, PublicKey: sk.Pub, File: ef, Auths: sigmas}
	if payload, err = msg.Marshal(); err != nil {
		tb.Fatal(err)
	}
	pkBlob, err := sk.Pub.Marshal(true)
	if err != nil {
		tb.Fatal(err)
	}
	fileBlob, err := ef.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	pk[0] = 2 + len(msg.Contract) + 4 + 4
	pk[1] = pk[0] + len(pkBlob)
	auths[0] = pk[1] + 4 + len(fileBlob) + 4
	auths[1] = len(payload)
	return payload, pk, auths
}

// TestAcceptAuditDataErrorOrder corrupts the public key and the
// authenticators of one payload: the concurrent decoders must return the
// public key's error, the first in frame order, at GOMAXPROCS 1 and 2.
func TestAcceptAuditDataErrorOrder(t *testing.T) {
	payload, pk, auths := smallAcceptAuditData(t)
	bad := bytes.Clone(payload)
	binary.BigEndian.PutUint32(bad[auths[0]+4:], 9) // authenticator 0 claims index 9
	_, authsErr := core.UnmarshalAuthenticators(bad[auths[0]:auths[1]])
	if authsErr == nil {
		t.Fatal("the authenticator corruption decodes")
	}
	if _, err := UnmarshalAcceptAuditData(bad); err == nil || err.Error() != authsErr.Error() {
		t.Fatalf("bad authenticators alone: error = %v, want %v", err, authsErr)
	}
	// The key's first G1 power, after its chunk size, two G2 points and its
	// name, gets an x coordinate above p.
	power := pk[0] + 4 + 2*bn256.G2UncompressedSize + 32
	copy(bad[power:power+bn256.G1CompressedSize], bytes.Repeat([]byte{0xFF}, bn256.G1CompressedSize))
	_, pkErr := core.UnmarshalPublicKey(bad[pk[0]:pk[1]], true)
	if pkErr == nil || pkErr.Error() == authsErr.Error() {
		t.Fatalf("the public-key corruption gives %v, not an error of its own", pkErr)
	}
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for run := 0; run < 20; run++ {
				if _, err := UnmarshalAcceptAuditData(bad); err == nil || err.Error() != pkErr.Error() {
					t.Fatalf("GOMAXPROCS %d, run %d: error = %v, want the public key's %v", procs, run, err, pkErr)
				}
			}
		}()
	}
}

// BenchmarkUnmarshalAcceptAuditData times a provider's intake decode of one
// engagement's audit data at s = 50, for a 128 KiB file (85 chunks) and a
// 512 KiB one (339 chunks): with an owner key decoded before (key=seen: the
// key memo serves all but its Name) and with a key the process has not seen
// (key=new: a fresh key is spliced into the payload before each iteration,
// outside the timer).
func BenchmarkUnmarshalAcceptAuditData(b *testing.B) {
	const s = 50
	for _, size := range []int{128 << 10, 512 << 10} {
		data := make([]byte, size)
		(&fixedReader{}).Read(data)
		ef, err := core.EncodeFile(data, s)
		if err != nil {
			b.Fatal(err)
		}
		sk, err := core.KeyGen(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		auths := make([]*core.Authenticator, ef.NumChunks())
		for i := range auths {
			auths[i] = &core.Authenticator{Index: i, Sigma: new(bn256.G1).ScalarBaseMult(big.NewInt(int64(i + 3)))}
		}
		msg := &AcceptAuditData{Contract: "audit:o:p:f", SampleSize: 300, PublicKey: sk.Pub, File: ef, Auths: auths}
		payload, err := msg.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		keyAt := 2 + len(msg.Contract) + 4 + 4
		for _, seen := range []bool{true, false} {
			name := fmt.Sprintf("chunks=%d/key=new", ef.NumChunks())
			if seen {
				name = fmt.Sprintf("chunks=%d/key=seen", ef.NumChunks())
			}
			b.Run(name, func(b *testing.B) {
				buf := bytes.Clone(payload)
				if _, err := UnmarshalAcceptAuditData(buf); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(buf)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !seen {
						b.StopTimer()
						fresh, err := core.KeyGen(s, nil)
						if err != nil {
							b.Fatal(err)
						}
						key, err := fresh.Pub.Marshal(true)
						if err != nil {
							b.Fatal(err)
						}
						copy(buf[keyAt:], key)
						b.StartTimer()
					}
					if _, err := UnmarshalAcceptAuditData(buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
