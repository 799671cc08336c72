package core

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// TestEncodedFileClone verifies Clone is a deep copy: corrupting the clone
// leaves the original untouched and vice versa.
func TestEncodedFileClone(t *testing.T) {
	data := bytes.Repeat([]byte("the owner's pristine archive data, several chunks long. "), 5)
	ef, err := EncodeFile(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	cp := ef.Clone()
	if cp.S != ef.S || cp.Length != ef.Length || cp.NumChunks() != ef.NumChunks() {
		t.Fatalf("clone shape mismatch: %d/%d/%d vs %d/%d/%d",
			cp.S, cp.Length, cp.NumChunks(), ef.S, ef.Length, ef.NumChunks())
	}
	if !bytes.Equal(cp.Decode(), data) {
		t.Fatal("clone does not round-trip")
	}

	cp.Corrupt(0, 0)
	if !bytes.Equal(ef.Decode(), data) {
		t.Fatal("corrupting the clone mutated the original")
	}
	if bytes.Equal(cp.Decode(), data) {
		t.Fatal("corruption did not take on the clone")
	}

	ef.Corrupt(1, 1)
	if cp.Chunks[1].Coeffs[1] == ef.Chunks[1].Coeffs[1] {
		t.Fatal("corrupting the original mutated the clone")
	}
}

// TestCloneAuthenticators verifies the authenticator deep copy: mutating a
// clone's group element leaves the original intact.
func TestCloneAuthenticators(t *testing.T) {
	data := bytes.Repeat([]byte("authenticated archive bytes "), 10)
	ef, err := EncodeFile(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := KeyGen(2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	cp := CloneAuthenticators(auths)
	if len(cp) != len(auths) {
		t.Fatalf("clone has %d auths, want %d", len(cp), len(auths))
	}
	before := auths[0].Sigma.Marshal()
	cp[0].Sigma.Add(cp[0].Sigma, cp[0].Sigma) // mutate the clone
	if !bytes.Equal(before, auths[0].Sigma.Marshal()) {
		t.Fatal("mutating the clone changed the original authenticator")
	}
	if bytes.Equal(cp[0].Sigma.Marshal(), auths[0].Sigma.Marshal()) {
		t.Fatal("mutation did not take on the clone")
	}
}

// TestEncodedFileAllocs pins the file's representation, one slab of scalars:
// encoding, decoding from the wire and cloning a 128 KiB file each allocate
// the slab, the chunk headers and the struct (the runtime's bookkeeping for a
// slab this large can add one or two), not one value per block: 4 228 here.
func TestEncodedFileAllocs(t *testing.T) {
	data := make([]byte, 128<<10)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	ef, err := EncodeFile(data, 50)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ef.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"EncodeFile":           func() { EncodeFile(data, 50) },
		"UnmarshalEncodedFile": func() { UnmarshalEncodedFile(enc) },
		"Clone":                func() { ef.Clone() },
		"MarshalBinary":        func() { ef.MarshalBinary() },
	} {
		if got := testing.AllocsPerRun(5, fn); got > 6 {
			t.Errorf("%s of a 128 KiB file: %v allocations, want at most 6", name, got)
		}
	}
}
