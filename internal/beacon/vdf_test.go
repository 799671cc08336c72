package beacon

import (
	"bytes"
	"math/big"
	"testing"
)

func testVDF(t *testing.T) *vdf {
	t.Helper()
	v, err := newVDF(256, 1000) // small modulus: test speed, not security
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVDFEvalVerify(t *testing.T) {
	v := testVDF(t)
	seed := []byte("round-7")
	proof, err := v.eval(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !v.verify(seed, proof) {
		t.Fatal("honest VDF evaluation rejected")
	}
}

func TestVDFRejectsForgery(t *testing.T) {
	v := testVDF(t)
	seed := []byte("round-8")
	proof, err := v.eval(seed)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong output.
	bad := &vdfProof{Input: proof.Input, Output: new(big.Int).Add(proof.Output, big.NewInt(1)), Pi: proof.Pi}
	if v.verify(seed, bad) {
		t.Fatal("accepted wrong output")
	}
	// Wrong proof.
	bad = &vdfProof{Input: proof.Input, Output: proof.Output, Pi: new(big.Int).Add(proof.Pi, big.NewInt(1))}
	if v.verify(seed, bad) {
		t.Fatal("accepted wrong pi")
	}
	// Wrong seed binding.
	if v.verify([]byte("other-round"), proof) {
		t.Fatal("accepted proof under wrong seed")
	}
	// Degenerate values.
	if v.verify(seed, nil) {
		t.Fatal("accepted nil proof")
	}
	if v.verify(seed, &vdfProof{Input: proof.Input, Output: proof.Output, Pi: new(big.Int)}) {
		t.Fatal("accepted zero pi")
	}
	if v.verify(seed, &vdfProof{Input: proof.Input, Output: v.N, Pi: proof.Pi}) {
		t.Fatal("accepted out-of-range output")
	}
}

func TestVDFDeterministic(t *testing.T) {
	v := testVDF(t)
	p1, _ := v.eval([]byte("x"))
	p2, _ := v.eval([]byte("x"))
	if p1.Output.Cmp(p2.Output) != 0 {
		t.Fatal("VDF not deterministic")
	}
	p3, _ := v.eval([]byte("y"))
	if p1.Output.Cmp(p3.Output) == 0 {
		t.Fatal("distinct seeds gave identical outputs")
	}
}

func TestNewVDFValidation(t *testing.T) {
	if _, err := newVDF(64, 100); err == nil {
		t.Fatal("accepted tiny modulus")
	}
	if _, err := newVDF(256, 0); err == nil {
		t.Fatal("accepted zero delay")
	}
}

func TestVDFBeaconRandomness(t *testing.T) {
	b, err := NewVDFBeacon(256, 200, []byte("beacon-seed"))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := b.Randomness(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != seedBytes {
		t.Fatalf("got %d bytes", len(r1))
	}
	r2, err := b.Randomness(1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(r1, r2) {
		t.Fatal("rounds collide")
	}
	// Deterministic per round for the same parameters and seed source.
	r1again, _ := b.Randomness(0)
	if !bytes.Equal(r1, r1again) {
		t.Fatal("beacon output not reproducible")
	}
}
