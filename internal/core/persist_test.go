package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/prf"
)

func TestPrivateKeyRoundTrip(t *testing.T) {
	sk, err := KeyGen(8, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := MarshalPrivateKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := UnmarshalPrivateKey(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.X != sk.X || dec.Alpha != sk.Alpha {
		t.Fatal("secrets mismatch")
	}
	if !dec.Pub.Epsilon.Equal(sk.Pub.Epsilon) || dec.Pub.Name != sk.Pub.Name {
		t.Fatal("public key mismatch")
	}

	// A restored key must produce the same authenticators.
	data := make([]byte, 500)
	rand.Read(data)
	ef, _ := EncodeFile(data, 8)
	a1, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Setup(dec, ef)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if !a1[i].Sigma.Equal(a2[i].Sigma) {
			t.Fatalf("authenticator %d differs after restore", i)
		}
	}
}

func TestPrivateKeyRejectsTampering(t *testing.T) {
	sk, _ := KeyGen(4, rand.Reader)
	enc, err := MarshalPrivateKey(sk)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalPrivateKey(enc[:10]); err == nil {
		t.Fatal("accepted truncated key")
	}

	bad := append([]byte(nil), enc...)
	bad[0] ^= 1 // header
	if _, err := UnmarshalPrivateKey(bad); err == nil {
		t.Fatal("accepted wrong header")
	}

	// Tamper with x: the embedded public key no longer matches.
	bad = append([]byte(nil), enc...)
	bad[len(privateKeyHeader)+5] ^= 1
	if _, err := UnmarshalPrivateKey(bad); err == nil {
		t.Fatal("accepted key with inconsistent secrets")
	}

	// Tamper with alpha likewise.
	bad = append([]byte(nil), enc...)
	bad[len(privateKeyHeader)+32+5] ^= 1
	if _, err := UnmarshalPrivateKey(bad); err == nil {
		t.Fatal("accepted key with inconsistent alpha")
	}
}

func TestChallengeMarshalRoundTrip(t *testing.T) {
	ch, err := NewChallenge(300, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc := ch.Marshal()
	if len(enc) != 48 {
		t.Fatalf("challenge encodes to %d bytes, want 48", len(enc))
	}
	dec, err := unmarshalChallenge(enc, 300)
	if err != nil {
		t.Fatal(err)
	}
	if dec.C1 != ch.C1 || dec.C2 != ch.C2 || dec.R != ch.R || dec.K != 300 {
		t.Fatal("challenge round trip mismatch")
	}
	// Expansion agreement is what actually matters on chain.
	i1, c1, r1, err := ch.Expand(500)
	if err != nil {
		t.Fatal(err)
	}
	i2, c2, r2, err := dec.Expand(500)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || !slices.Equal(c1, c2) {
		t.Fatal("expansion differs after round trip")
	}
	for i := range i1 {
		if i1[i] != i2[i] {
			t.Fatal("indices differ after round trip")
		}
	}
}

func TestUnmarshalChallengeValidation(t *testing.T) {
	if _, err := unmarshalChallenge(make([]byte, 47), 10); err == nil {
		t.Fatal("accepted short challenge")
	}
	if _, err := unmarshalChallenge(make([]byte, 48), 0); err == nil {
		t.Fatal("accepted k = 0")
	}
}

func TestPrivateKeyEncodingStable(t *testing.T) {
	sk, _ := KeyGen(4, rand.Reader)
	e1, _ := MarshalPrivateKey(sk)
	e2, _ := MarshalPrivateKey(sk)
	if !bytes.Equal(e1, e2) {
		t.Fatal("key encoding not deterministic")
	}
}

// auditStateFixture builds one engagement's worth of provider-side audit
// state: a keypair, an encoded file and its authenticators.
func auditStateFixture(t *testing.T, s, size int) (*PrivateKey, *EncodedFile, []*Authenticator) {
	t.Helper()
	sk, err := KeyGen(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rand.Read(data)
	ef, err := EncodeFile(data, s)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	return sk, ef, auths
}

func TestAuditStateRoundTrip(t *testing.T) {
	sk, ef, auths := auditStateFixture(t, 4, 400)
	enc, err := MarshalAuditState(ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	ef2, auths2, err := UnmarshalAuditState(enc)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic rehydrate: a prover rebuilt from the spilled bytes must
	// produce the exact proof the original state would have — the golden
	// property the scheduler's disk spill relies on.
	ch, err := NewChallenge(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewProver(sk.Pub, ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewProver(sk.Pub, ef2, auths2)
	if err != nil {
		t.Fatal(err)
	}
	pr1, err := p1.Prove(ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := p2.Prove(ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pr1.Sigma.Equal(pr2.Sigma) || pr1.Y != pr2.Y || !pr1.Psi.Equal(pr2.Psi) {
		t.Fatal("rehydrated prover produced a different proof")
	}

	// One encoding per value.
	enc2, err := MarshalAuditState(ef2, auths2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("audit-state encoding not deterministic across a round trip")
	}
}

func TestAuditStateRejectsCorruption(t *testing.T) {
	_, ef, auths := auditStateFixture(t, 4, 300)
	enc, err := MarshalAuditState(ef, auths)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at every prefix length must error, never panic. Stepping by
	// a small prime keeps the test fast while still hitting every region
	// (header, length field, file, auths, checksum).
	for n := 0; n < len(enc); n += 7 {
		if _, _, err := UnmarshalAuditState(enc[:n]); err == nil {
			t.Fatalf("accepted truncation to %d bytes", n)
		}
	}

	// Any single flipped bit breaks the checksum (or, for trailer bytes, the
	// checksum comparison itself).
	for _, pos := range []int{0, 4, 5, 9, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 1
		if _, _, err := UnmarshalAuditState(bad); err == nil {
			t.Fatalf("accepted flipped bit at %d", pos)
		}
	}

	// Pure garbage of plausible sizes.
	for _, n := range []int{1, 41, 1024} {
		junk := make([]byte, n)
		rand.Read(junk)
		if _, _, err := UnmarshalAuditState(junk); err == nil {
			t.Fatalf("accepted %d bytes of garbage", n)
		}
	}

	// A forged length field that points past the payload must be caught even
	// if the forger fixes up the checksum.
	bad := append([]byte(nil), enc[:len(enc)-32]...)
	bad[len(auditStateHeader)] = 0xff
	sum := sha256sumHelper(bad)
	bad = append(bad, sum...)
	if _, _, err := UnmarshalAuditState(bad); err == nil {
		t.Fatal("accepted oversized file length")
	}
}

// TestAuditStateRejectsVersion1: a record written before the authenticators
// went uncompressed (header version 1, 36-byte compressed records, a valid
// checksum) is ErrMalformed, not misread.
func TestAuditStateRejectsVersion1(t *testing.T) {
	_, ef, auths := auditStateFixture(t, 4, 300)
	file, err := ef.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte{'d', 's', 'n', 'a', 1}, binary.BigEndian.AppendUint32(nil, uint32(len(file)))...)
	v1 = append(v1, file...)
	v1 = append(v1, marshalCompressedAuths(auths)...)
	v1 = append(v1, sha256sumHelper(v1)...)
	if _, _, err := UnmarshalAuditState(v1); !errors.Is(err, ErrMalformed) {
		t.Fatalf("version-1 record: error = %v, want ErrMalformed", err)
	}
}

// sha256sumHelper recomputes the trailer for forged-record tests.
func sha256sumHelper(body []byte) []byte {
	sum := sha256.Sum256(body)
	return sum[:]
}

func TestAuditStateConcurrentSpillLoad(t *testing.T) {
	// Concurrent spill/load of shared audit state — the access pattern of a
	// sharded scheduler evicting and rehydrating engagements from many
	// goroutines at once. Run under -race this pins down that the codec
	// touches nothing but its inputs.
	sk, ef, auths := auditStateFixture(t, 4, 300)
	enc, err := MarshalAuditState(ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g%2 == 0 {
					out, err := MarshalAuditState(ef, auths)
					if err != nil || !bytes.Equal(out, enc) {
						t.Errorf("concurrent marshal diverged: %v", err)
						return
					}
				} else {
					ef2, auths2, err := UnmarshalAuditState(enc)
					if err != nil {
						t.Errorf("concurrent unmarshal: %v", err)
						return
					}
					if _, err := NewProver(sk.Pub, ef2, auths2); err != nil {
						t.Errorf("concurrent rehydrate: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSaveLoadAuditState(t *testing.T) {
	sk, err := KeyGen(4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 600)
	rand.Read(data)
	ef, err := EncodeFile(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "audit.state")
	if err := SaveAuditState(path, ef, auths); err != nil {
		t.Fatal(err)
	}
	// The atomic write leaves no tmp file behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	ef2, auths2, err := LoadAuditState(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := ef.MarshalBinary()
	b2, _ := ef2.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Fatal("encoded file changed across save/load")
	}
	if len(auths2) != len(auths) {
		t.Fatalf("%d authenticators loaded, want %d", len(auths2), len(auths))
	}
	for i := range auths {
		if !auths[i].Sigma.Equal(auths2[i].Sigma) {
			t.Fatalf("authenticator %d differs after save/load", i)
		}
	}

	// A flipped byte surfaces as ErrMalformed, never as a wrong prover.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadAuditState(path); !errors.Is(err, ErrMalformed) {
		t.Fatalf("corrupted load err = %v, want ErrMalformed", err)
	}
}

// unmarshalChallenge parses the 48-byte on-chain challenge encoding
// produced by Challenge.Marshal. k is carried in contract state, so the
// caller supplies it.
func unmarshalChallenge(data []byte, k int) (*Challenge, error) {
	if len(data) != 3*prf.SeedSize {
		return nil, ErrMalformed
	}
	if k < 1 {
		return nil, errBadParameters
	}
	ch := &Challenge{K: k}
	copy(ch.C1[:], data[0:prf.SeedSize])
	copy(ch.C2[:], data[prf.SeedSize:2*prf.SeedSize])
	copy(ch.R[:], data[2*prf.SeedSize:])
	return ch, nil
}
