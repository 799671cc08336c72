package core

import (
	"bytes"
	"crypto/rand"
	"slices"
	"sync"
	"testing"
)

// encodeFromPoints encodes pk in Marshal's layout from its S, points and
// Name, never from a stored body.
func encodeFromPoints(pk *PublicKey, withPrivacy bool) ([]byte, error) {
	body, err := pk.encodeBody(withPrivacy)
	if err != nil {
		return nil, err
	}
	name := pk.Name.Bytes()
	out := append(append([]byte(nil), body[:keyNameAt]...), name[:]...)
	return append(out, body[keyNameAt:]...), nil
}

// checkEncodingFollowsPoints fails unless Marshal and KeyBody give, under
// both privacy flags, what encoding pk's S, points and Name afresh gives.
func checkEncodingFollowsPoints(t *testing.T, what string, pk *PublicKey) {
	t.Helper()
	for _, privacy := range []bool{false, true} {
		want, err := encodeFromPoints(pk, privacy)
		if err != nil {
			t.Fatalf("%s, privacy %v: %v", what, privacy, err)
		}
		got, err := pk.Marshal(privacy)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s, privacy %v: Marshal differs from the points' encoding (%v)", what, privacy, err)
		}
		wantBody, wantName := splitKeyEncoding(want)
		body, name, err := pk.KeyBody(privacy)
		if err != nil || !bytes.Equal(body, wantBody) || name != wantName {
			t.Errorf("%s, privacy %v: KeyBody differs from the points' encoding (%v)", what, privacy, err)
		}
	}
}

// TestKeyEncodingFollowsFields: every form a key takes encodes to what its
// fields say. A key from KeyGen, a decode on a memo miss and on a hit, and a
// struct copy with a new Name serve their stored body; copies with a
// replaced ε, δ, EG1Eps, power or S, and a key built by hand, are encoded
// from their points.
func TestKeyEncodingFollowsFields(t *testing.T) {
	sk, err := KeyGen(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	other, err := KeyGen(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sk.Pub.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := splitKeyEncoding(enc); keyMemo.get(body) != nil {
		t.Fatal("a fresh key's body is in the memo already: the first decode is no miss")
	}
	miss, err := UnmarshalPublicKey(enc, true)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := UnmarshalPublicKey(enc, true)
	if err != nil {
		t.Fatal(err)
	}
	plainEnc, err := other.Pub.Marshal(false)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := UnmarshalPublicKey(plainEnc, false)
	if err != nil {
		t.Fatal(err)
	}
	// copied is a struct copy of sk.Pub under edit, with its own Powers
	// slice so that no edit reaches sk.Pub.
	copied := func(edit func(*PublicKey)) *PublicKey {
		c := *sk.Pub
		c.Powers = slices.Clone(c.Powers)
		edit(&c)
		return &c
	}
	renamed := namedKey(t, sk.Pub)
	for _, tc := range []struct {
		what   string
		pk     *PublicKey
		stored bool // serves its stored body with the GT element
	}{
		{"KeyGen", sk.Pub, true},
		{"memo miss", miss, true},
		{"memo hit", hit, true},
		{"new Name", renamed, true},
		{"decoded without the GT element", plain, false},
		{"replaced Delta", copied(func(c *PublicKey) { c.Delta = other.Pub.Delta }), false},
		{"replaced Epsilon", copied(func(c *PublicKey) { c.Epsilon = other.Pub.Epsilon }), false},
		{"replaced EG1Eps", copied(func(c *PublicKey) { c.EG1Eps = other.Pub.EG1Eps }), false},
		{"replaced power", copied(func(c *PublicKey) { c.Powers[1] = other.Pub.Powers[1] }), false},
		{"replaced S", copied(func(c *PublicKey) { c.S++ }), false},
		{"built by hand", &PublicKey{S: sk.Pub.S, Epsilon: sk.Pub.Epsilon, Delta: sk.Pub.Delta, Powers: sk.Pub.Powers, EG1Eps: sk.Pub.EG1Eps, Name: sk.Pub.Name}, false},
	} {
		if got := tc.pk.stored(true) != nil; got != tc.stored {
			t.Errorf("%s: serves a stored body %v, want %v", tc.what, got, tc.stored)
		}
		checkEncodingFollowsPoints(t, tc.what, tc.pk)
	}
	if hit.body != miss.body {
		t.Error("a memo hit does not share the stored body of the miss")
	}

	// A power replaced in a Powers slice that two keys share reaches both.
	aliased := *miss
	aliased.Powers[0] = other.Pub.Powers[0]
	for _, pk := range []*PublicKey{miss, &aliased} {
		if pk.stored(false) != nil {
			t.Fatal("a key whose shared Powers slice was written serves its stored body")
		}
		checkEncodingFollowsPoints(t, "power replaced in a shared slice", pk)
	}
}

// TestKeyEncodingConcurrent reads one key's stored body from several
// goroutines at once, through Marshal and KeyBody, decoded and from KeyGen
// (run with -race).
func TestKeyEncodingConcurrent(t *testing.T) {
	sk, err := KeyGen(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sk.Pub.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pk, err := UnmarshalPublicKey(enc, true)
			if err != nil {
				errs <- err.Error()
				return
			}
			for _, k := range []*PublicKey{sk.Pub, pk} {
				re, err := k.Marshal(true)
				if err != nil || !bytes.Equal(re, enc) {
					errs <- "Marshal differs from the key's encoding"
				}
				if _, _, err := k.KeyBody(g%2 == 0); err != nil {
					errs <- err.Error()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
