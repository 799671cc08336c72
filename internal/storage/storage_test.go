package storage

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
)

func testKey(t *testing.T) []byte {
	t.Helper()
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	return key
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := testKey(t)
	data := []byte("archive me")
	s, err := Seal(key, data, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := open(key, s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("seal/open round trip failed")
	}
}

func TestSealRejectsBadKeySize(t *testing.T) {
	if _, err := Seal([]byte("short"), []byte("x"), nil); err == nil {
		t.Fatal("accepted short key")
	}
	if _, err := open([]byte("short"), &Sealed{}); err == nil {
		t.Fatal("Open accepted short key")
	}
}

func TestOpenDetectsTampering(t *testing.T) {
	key := testKey(t)
	s, _ := Seal(key, []byte("sensitive bytes"), rand.Reader)
	s.Body[0] ^= 1
	if _, err := open(key, s); err != errCorrupted {
		t.Fatalf("tampered body: err = %v, want ErrCorrupted", err)
	}
	s.Body[0] ^= 1
	s.Nonce[0] ^= 1
	if _, err := open(key, s); err != errCorrupted {
		t.Fatalf("tampered nonce: err = %v, want ErrCorrupted", err)
	}
}

func TestOpenWrongKey(t *testing.T) {
	key := testKey(t)
	s, _ := Seal(key, []byte("data"), rand.Reader)
	other := testKey(t)
	if _, err := open(other, s); err != errCorrupted {
		t.Fatalf("wrong key: err = %v, want ErrCorrupted", err)
	}
}

func TestCiphertextLooksRandom(t *testing.T) {
	// The same plaintext sealed twice must differ (fresh nonces), and the
	// ciphertext must not contain the plaintext.
	key := testKey(t)
	plain := bytes.Repeat([]byte("A"), 256)
	s1, _ := Seal(key, plain, rand.Reader)
	s2, _ := Seal(key, plain, rand.Reader)
	if bytes.Equal(s1.Body, s2.Body) {
		t.Fatal("deterministic ciphertext: nonce reuse")
	}
	if bytes.Contains(s1.Body, []byte("AAAAAAAA")) {
		t.Fatal("plaintext pattern visible in ciphertext")
	}
}

func TestSealedMarshalRoundTrip(t *testing.T) {
	key := testKey(t)
	s, _ := Seal(key, []byte("payload"), rand.Reader)
	enc := s.Marshal()
	dec, err := unmarshalSealed(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Nonce != s.Nonce || dec.Tag != s.Tag || !bytes.Equal(dec.Body, s.Body) {
		t.Fatal("sealed round trip mismatch")
	}
	if _, err := unmarshalSealed(enc[:10]); err == nil {
		t.Fatal("accepted truncated blob")
	}
}

func TestPrepareReassemble(t *testing.T) {
	key := testKey(t)
	data := make([]byte, 5000)
	rand.Read(data)
	man, shares, err := Prepare("photos", key, data, 3, 7, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 10 || len(man.ShareKeys) != 10 {
		t.Fatalf("got %d shares", len(shares))
	}

	// Lose the maximum 7 shares.
	kept := make([][]byte, 10)
	for _, i := range []int{0, 4, 8} {
		kept[i] = shares[i]
	}
	got, err := Reassemble(man, key, kept)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reassembled data mismatch")
	}
}

func TestReassembleDetectsShareCorruption(t *testing.T) {
	key := testKey(t)
	data := make([]byte, 1000)
	rand.Read(data)
	man, shares, _ := Prepare("f", key, data, 2, 2, rand.Reader)
	shares[0][5] ^= 0x55
	if _, err := Reassemble(man, key, shares); err == nil {
		t.Fatal("corrupted share accepted")
	}
}

func TestReassembleTooFewShares(t *testing.T) {
	key := testKey(t)
	man, shares, _ := Prepare("f", key, []byte("hello world"), 3, 2, rand.Reader)
	kept := make([][]byte, len(shares))
	kept[0] = shares[0]
	if _, err := Reassemble(man, key, kept); err == nil {
		t.Fatal("reconstructed from too few shares")
	}
}

func TestProviderPutGetDrop(t *testing.T) {
	p := NewProvider("sp1")
	p.Put("a", []byte{1, 2, 3})
	got, err := p.Get("a")
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatal("get after put failed")
	}
	// Returned slice must be a copy.
	got[0] = 99
	again, _ := p.Get("a")
	if again[0] == 99 {
		t.Fatal("Get returned aliased storage")
	}
	if !p.Drop("a") {
		t.Fatal("drop failed")
	}
	if _, err := p.Get("a"); err != errNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if p.Drop("a") {
		t.Fatal("double drop succeeded")
	}
}

// TestProviderCorruptObject pins how a stored object gets corrupted: only by
// putting changed bytes back, since Get hands out a copy.
func TestProviderCorruptObject(t *testing.T) {
	p := NewProvider("sp1")
	p.Put("x", []byte{0, 0, 0, 0})
	got, _ := p.Get("x")
	got[2] ^= 0xFF
	if again, _ := p.Get("x"); again[2] != 0 {
		t.Fatal("mutating a fetched object changed the stored one")
	}
	p.Put("x", got)
	if again, _ := p.Get("x"); again[2] != 0xFF {
		t.Fatal("corruption not applied")
	}
	if _, err := p.Get("missing"); !errors.Is(err, errNotFound) {
		t.Fatalf("missing object: %v, want errNotFound", err)
	}
}

func TestProviderAccounting(t *testing.T) {
	p := NewProvider("sp1")
	p.Put("a", make([]byte, 100))
	p.Put("b", make([]byte, 50))
	if p.usedBytes() != 150 {
		t.Fatalf("used = %d, want 150", p.usedBytes())
	}
	if len(p.keys()) != 2 {
		t.Fatal("keys wrong")
	}
}

// usedBytes reports total stored bytes (for capacity experiments).
func (p *Provider) usedBytes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	total := 0
	for _, o := range p.objects {
		total += len(o)
	}
	return total
}

// keys returns the stored object keys (sorted order not guaranteed).
func (p *Provider) keys() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.objects))
	for k := range p.objects {
		out = append(out, k)
	}
	return out
}
