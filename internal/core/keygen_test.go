package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bn256"
)

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// g2Z reads the z coordinate out of a G2's unexported Jacobian
// representation, which bn256 gives no accessor for. It fails the test,
// rather than passing quietly, if the representation is ever renamed.
func g2Z(t *testing.T, p *bn256.G2) string {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("bn256.G2 no longer holds a *twistPoint{x, y, z}: %v", r)
		}
	}()
	z := reflect.ValueOf(p).Elem().FieldByName("p").Elem().FieldByName("z")
	return fmt.Sprint(z)
}

// TestKeyGenAffineAtSource: KeyGen hands out ε and δ affine, as it does the
// powers, so that no Marshal and no Miller loop inverts for them; and doing so
// changed neither the key's bytes nor what KeyGen draws from its reader.
func TestKeyGenAffineAtSource(t *testing.T) {
	// The cross-version fixture's key is KeyGen(3, math/rand seeded 13).
	r := &countingReader{r: rand.New(rand.NewSource(13))}
	sk, err := KeyGen(3, r)
	if err != nil {
		t.Fatal(err)
	}
	if r.n != 3*32 {
		t.Fatalf("KeyGen read %d bytes from its reader, want %d", r.n, 3*32)
	}
	encoded, err := MarshalPrivateKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(encoded) != parentFixture.sk {
		t.Fatal("KeyGen from the fixture's reader no longer yields the fixture's key bytes")
	}

	pkBytes, err := sk.Pub.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalPublicKey(pkBytes, true)
	if err != nil {
		t.Fatal(err)
	}
	again, err := decoded.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkBytes, again) {
		t.Fatal("Marshal(true) differs from the bytes of its Unmarshal → Marshal round trip")
	}

	// A point that was just unmarshalled is affine by construction.
	one := g2Z(t, decoded.Epsilon)
	if jacobian := g2Z(t, new(bn256.G2).ScalarBaseMult(sk.X)); jacobian == one {
		t.Fatal("a fresh scalar multiple is already affine: the check below checks nothing")
	}
	if g2Z(t, sk.Pub.Epsilon) != one || g2Z(t, sk.Pub.Delta) != one {
		t.Fatal("KeyGen left ε or δ in Jacobian form")
	}
}
