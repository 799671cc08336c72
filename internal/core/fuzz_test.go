package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// Fuzz targets for the wire decoders: anything reachable from chain bytes
// must never panic and must only accept canonical encodings.

func FuzzUnmarshalProof(f *testing.F) {
	_, _, prover := fuzzSetup(f)
	ch, _ := NewChallenge(2, rand.Reader)
	proof, err := prover.Prove(ch, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(proof.marshal())
	f.Add(make([]byte, proofSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := unmarshalProof(data)
		if err != nil {
			return
		}
		// Accepted encodings must re-marshal canonically.
		if !bytes.Equal(p.marshal(), data) {
			t.Fatal("accepted non-canonical proof encoding")
		}
	})
}

func FuzzUnmarshalPrivateProof(f *testing.F) {
	_, _, prover := fuzzSetup(f)
	ch, _ := NewChallenge(2, rand.Reader)
	proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	enc, _ := proof.Marshal()
	f.Add(enc)
	f.Add(make([]byte, PrivateProofSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPrivateProof(data)
		if err != nil {
			return
		}
		re, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted proof fails to re-marshal: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted non-canonical private proof encoding")
		}
	})
}

// FuzzPrepareProof holds the per-item step of batch verification to the
// decoder and to the unprepared path: on any bytes PrepareProof does not
// panic, fails exactly where UnmarshalPrivateProof does, and when the bytes
// decode, a one-item batch reaches the same verdict from the prepared item
// as from the decoded proof verified unprepared.
func FuzzPrepareProof(f *testing.F) {
	_, ef, prover := fuzzSetup(f)
	ch, _ := NewChallenge(2, rand.Reader)
	proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	enc, _ := proof.Marshal()
	f.Add(enc)
	for _, i := range []int{0, 31, 32, 63, 64, 95, 96, 200, PrivateProofSize - 1} {
		flipped := bytes.Clone(enc)
		flipped[i] ^= 1
		f.Add(flipped)
	}
	d := ef.NumChunks()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := PrepareProof(prover.Pub, d, ch, data)
		decoded, derr := UnmarshalPrivateProof(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("PrepareProof error %v, UnmarshalPrivateProof error %v", err, derr)
		}
		if err != nil {
			return
		}
		got := VerifyPrepared([]*PreparedProof{p}, nil, 1)[0]
		want := VerifyBatchParallel([]*BatchItem{{Pub: prover.Pub, NumChunks: d, Challenge: ch, Proof: decoded}}, nil, 1)[0]
		if got != want {
			t.Fatalf("prepared verdict %v, unprepared %v", got, want)
		}
		if !got && bytes.Equal(data, enc) {
			t.Fatal("the honest proof fails")
		}
	})
}

func FuzzUnmarshalPublicKey(f *testing.F) {
	sk, err := KeyGen(3, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	enc, _ := sk.Pub.Marshal(true)
	f.Add(enc, true)
	plain, _ := sk.Pub.Marshal(false)
	f.Add(plain, false)
	f.Add([]byte{0, 0, 0, 3}, false)
	f.Fuzz(func(t *testing.T, data []byte, privacy bool) {
		pk, err := UnmarshalPublicKey(data, privacy)
		// The second decode may be served by the key memo: it must give what
		// the first gave, the same error or an equal key.
		again, errAgain := UnmarshalPublicKey(data, privacy)
		if (err == nil) != (errAgain == nil) || err != nil && err.Error() != errAgain.Error() {
			t.Fatalf("decodes disagree: %v, then %v", err, errAgain)
		}
		if err != nil {
			return
		}
		re, err := pk.Marshal(privacy)
		if err != nil {
			t.Fatalf("accepted key fails to re-marshal: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted non-canonical public key encoding")
		}
		reAgain, err := again.Marshal(privacy)
		if err != nil || !bytes.Equal(reAgain, re) || again.S != pk.S || again.Name != pk.Name || !again.EG1Eps.Equal(pk.EG1Eps) {
			t.Fatalf("the second decode differs from the first (%v)", err)
		}
	})
}

func FuzzUnmarshalPrivateKey(f *testing.F) {
	sk, err := KeyGen(2, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	enc, _ := MarshalPrivateKey(sk)
	f.Add(enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		sk2, err := UnmarshalPrivateKey(data)
		if err != nil {
			return
		}
		// Accepted keys must be internally consistent by construction.
		if err := sk2.validate(); err != nil {
			t.Fatalf("accepted inconsistent private key: %v", err)
		}
	})
}

// FuzzUnmarshalAuditState covers the spill-record decoder. The record is
// sealed by a trailing sha256, which no mutator gets past, so with reseal set
// the harness recomputes it over the mutated body and the structural checks
// behind it are reached too.
func FuzzUnmarshalAuditState(f *testing.F) {
	_, ef, prover := fuzzSetup(f)
	valid, err := MarshalAuditState(ef, prover.Auths)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 1
	// A file-length field that claims more bytes than the record holds.
	overlong := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(overlong[len(auditStateHeader):], uint32(len(overlong)))
	f.Add(valid, false)
	f.Add(valid[:len(valid)/2], false)
	f.Add(flipped, false)
	f.Add(append([]byte(nil), auditStateHeader...), false)
	f.Add(overlong, true)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= sha256.Size {
			data = append([]byte(nil), data...)
			body := data[:len(data)-sha256.Size]
			sum := sha256.Sum256(body)
			copy(data[len(body):], sum[:])
		}
		ef, auths, err := UnmarshalAuditState(data)
		if err != nil {
			return
		}
		re, err := MarshalAuditState(ef, auths)
		if err != nil {
			t.Fatalf("accepted audit state fails to re-marshal: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted non-canonical audit-state encoding")
		}
	})
}

// fuzzSetup is testSetup for fuzz harnesses (which take *testing.F).
func fuzzSetup(f testing.TB) (*PrivateKey, *EncodedFile, *Prover) {
	f.Helper()
	sk, err := KeyGen(3, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	data := make([]byte, 300)
	rand.Read(data)
	ef, err := EncodeFile(data, 3)
	if err != nil {
		f.Fatal(err)
	}
	auths, err := Setup(sk, ef)
	if err != nil {
		f.Fatal(err)
	}
	prover, err := NewProver(sk.Pub, ef, auths)
	if err != nil {
		f.Fatal(err)
	}
	return sk, ef, prover
}
