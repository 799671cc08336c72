package bn256

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// Wire-decoder fuzzing: group-element parsers face attacker-controlled
// chain bytes, so they must never panic and must accept only canonical
// encodings (accept -> re-marshal byte-identical).

func FuzzG1UnmarshalCompressed(f *testing.F) {
	_, p, _ := RandomG1(rand.Reader)
	f.Add(p.MarshalCompressed())
	f.Add(new(G1).SetInfinity().MarshalCompressed())
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G1
		if err := q.UnmarshalCompressed(data); err != nil {
			return
		}
		if !bytes.Equal(q.MarshalCompressed(), data) {
			t.Fatal("accepted non-canonical compressed G1")
		}
	})
}

func FuzzG1Unmarshal(f *testing.F) {
	_, p, _ := RandomG1(rand.Reader)
	f.Add(p.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G1
		if err := q.Unmarshal(data); err != nil {
			return
		}
		if !bytes.Equal(q.Marshal(), data) {
			t.Fatal("accepted non-canonical G1")
		}
	})
}

func FuzzG2UnmarshalCompressed(f *testing.F) {
	_, p, _ := RandomG2(rand.Reader)
	f.Add(p.MarshalCompressed())
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G2
		if err := q.UnmarshalCompressed(data); err != nil {
			return
		}
		if !bytes.Equal(q.MarshalCompressed(), data) {
			t.Fatal("accepted non-canonical compressed G2")
		}
	})
}

func FuzzGTUnmarshalCompressed(f *testing.F) {
	g := Pair(new(G1).ScalarBaseMult(bigOne), new(G2).ScalarBaseMult(bigOne))
	enc, err := g.MarshalCompressed()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	// Norm-1 elements the subgroup check must refuse: f^(p^6-1) fails the
	// cyclotomic stage, its easy-part completion the a^p == a^(6u^2) stage.
	unitary := newGFp12().Conjugate(g.p)
	unitary.x.z.x.SetInt64(7) // any f outside the subgroups
	cofactor := easyPart(unitary)
	unitary.Mul(newGFp12().Conjugate(unitary), newGFp12().Invert(unitary))
	for _, a := range []*gfP12{unitary, cofactor} {
		enc, err := (&GT{p: a}).MarshalCompressed()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var q GT
		err := q.UnmarshalCompressed(data)
		if len(data) != GTCompressedSize {
			if err == nil {
				t.Fatal("accepted a compressed GT of the wrong length")
			}
			return
		}
		// Differential against the check this one replaced, on whatever
		// element the decoder got as far as building.
		if old := oldHasOrderN(q.p); q.p.hasOrderN() != old || (err == nil && !old) {
			t.Fatalf("subgroup check disagrees with a^n == 1 (err=%v, a^n==1: %v)", err, old)
		}
		if err != nil {
			return
		}
		re, err := q.MarshalCompressed()
		if err != nil {
			t.Fatalf("accepted GT fails to re-marshal: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted non-canonical compressed GT")
		}
	})
}
