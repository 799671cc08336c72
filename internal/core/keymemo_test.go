package core

import (
	"bytes"
	"crypto/rand"
	"sync"
	"testing"

	"repro/internal/bn256"
)

// keyNameOff is where the 32-byte Name sits in a key encoding: after s and
// the two uncompressed G2 points.
const keyNameOff = 4 + 2*bn256.G2UncompressedSize

// withoutName is a key encoding's memo key.
func withoutName(enc []byte) []byte {
	return append(append([]byte(nil), enc[:keyNameOff]...), enc[keyNameOff+32:]...)
}

// sharesPoints reports whether a and b hold the same point objects, not
// merely equal values.
func sharesPoints(a, b *PublicKey) bool {
	if a.Epsilon != b.Epsilon || a.Delta != b.Delta || a.EG1Eps != b.EG1Eps || len(a.Powers) != len(b.Powers) {
		return false
	}
	for j := range a.Powers {
		if a.Powers[j] != b.Powers[j] {
			return false
		}
	}
	return true
}

// TestUnmarshalPublicKeySharesPoints: two decodes of one key share ε, δ,
// the powers and EG1Eps, and each gets its own Powers slice and Name.
func TestUnmarshalPublicKeySharesPoints(t *testing.T) {
	for _, privacy := range []bool{true, false} {
		sk, err := KeyGen(4, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := sk.Pub.Marshal(privacy)
		if err != nil {
			t.Fatal(err)
		}
		first, err := UnmarshalPublicKey(enc, privacy)
		if err != nil {
			t.Fatal(err)
		}
		second, err := UnmarshalPublicKey(enc, privacy)
		if err != nil {
			t.Fatal(err)
		}
		if !sharesPoints(first, second) {
			t.Fatalf("privacy %v: the second decode does not share the first's points", privacy)
		}
		if &first.Powers[0] == &second.Powers[0] {
			t.Fatalf("privacy %v: two decodes share one Powers slice", privacy)
		}
		for _, pk := range []*PublicKey{first, second} {
			re, err := pk.Marshal(privacy)
			if err != nil || !bytes.Equal(re, enc) {
				t.Fatalf("privacy %v: a decode re-marshals to other bytes (%v)", privacy, err)
			}
			if !pk.EG1Eps.Equal(sk.Pub.EG1Eps) {
				t.Fatalf("privacy %v: EG1Eps differs from the key's", privacy)
			}
		}
	}
}

// TestUnmarshalPublicKeyNamesStayApart: two keys that differ only in Name
// share their points and keep their own Names.
func TestUnmarshalPublicKeyNamesStayApart(t *testing.T) {
	sk, err := KeyGen(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	other := *sk.Pub
	if err := other.Name.SetRandom(rand.Reader); err != nil {
		t.Fatal(err)
	}
	encA, err := sk.Pub.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	encB, err := other.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	a, err := UnmarshalPublicKey(encA, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalPublicKey(encB, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != sk.Pub.Name || b.Name != other.Name {
		t.Fatal("a decode took another key's Name")
	}
	if !sharesPoints(a, b) {
		t.Fatal("keys that differ only in Name do not share their points")
	}
}

// TestUnmarshalPublicKeyMalformedNotMemoized: a key with a bad power, and
// one with a good body but a Name above n, fail on every attempt, and a
// failed decode leaves nothing in the memo.
func TestUnmarshalPublicKeyMalformedNotMemoized(t *testing.T) {
	sk, err := KeyGen(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sk.Pub.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	badPower := bytes.Clone(enc)
	copy(badPower[keyNameOff+32:], bytes.Repeat([]byte{0xFF}, bn256.G1CompressedSize))
	badName := bytes.Clone(enc)
	copy(badName[keyNameOff:], bytes.Repeat([]byte{0xFF}, 32))

	for _, bad := range [][]byte{badPower, badName} {
		var first error
		for attempt := 0; attempt < 3; attempt++ {
			_, err := UnmarshalPublicKey(bad, true)
			if err == nil {
				t.Fatalf("attempt %d: malformed key accepted", attempt)
			}
			if attempt == 0 {
				first = err
			} else if err.Error() != first.Error() {
				t.Fatalf("attempt %d: error %v, first attempt %v", attempt, err, first)
			}
		}
		if keyMemo.get(withoutName(bad)) != nil {
			t.Fatal("a malformed key entered the memo")
		}
	}

	// Once the body is memoized, a bad Name is still refused.
	if _, err := UnmarshalPublicKey(enc, true); err != nil {
		t.Fatal(err)
	}
	if keyMemo.get(withoutName(enc)) == nil {
		t.Fatal("a valid key did not enter the memo")
	}
	if _, err := UnmarshalPublicKey(badName, true); err == nil {
		t.Fatal("a memoized body with a Name above n accepted")
	}
}

// TestKeyMemoEvictsOldest: the memo keeps at most keyMemoBytes of bodies,
// dropping the oldest first, and never keeps a body larger than itself.
func TestKeyMemoEvictsOldest(t *testing.T) {
	m := keyBodies{keys: make(map[string]*PublicKey)}
	third := keyMemoBytes / 3
	bodies := make([][]byte, 4)
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{byte(i + 1)}, third)
		m.put(bodies[i], &PublicKey{})
	}
	if m.get(bodies[0]) != nil {
		t.Fatal("the oldest body survived a fourth third")
	}
	for i := 1; i < 4; i++ {
		if m.get(bodies[i]) == nil {
			t.Fatalf("body %d evicted", i)
		}
	}
	if m.bytes > keyMemoBytes {
		t.Fatalf("memo holds %d bytes, capacity %d", m.bytes, keyMemoBytes)
	}
	huge := make([]byte, keyMemoBytes+1)
	m.put(huge, &PublicKey{})
	if m.get(huge) != nil || m.get(bodies[3]) == nil {
		t.Fatal("a body larger than the memo displaced the others")
	}
}

// TestUnmarshalPublicKeyConcurrent decodes one key from several goroutines
// at once, first time and memoized, and reads the shared points from all of
// them (run with -race).
func TestUnmarshalPublicKeyConcurrent(t *testing.T) {
	sk, err := KeyGen(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sk.Pub.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pk, err := UnmarshalPublicKey(enc, true)
			if err != nil {
				errs[g] = err
				return
			}
			if !pk.Epsilon.Equal(sk.Pub.Epsilon) || !pk.Powers[2].Equal(sk.Pub.Powers[2]) || !pk.EG1Eps.Equal(sk.Pub.EG1Eps) {
				errs[g] = ErrMalformed
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
