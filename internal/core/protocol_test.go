package core

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/bn256"
)

// testSetup builds a small complete instance: key, file, authenticators.
func testSetup(t *testing.T, s, fileBytes int) (*PrivateKey, *EncodedFile, *Prover) {
	t.Helper()
	sk, err := KeyGen(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, fileBytes)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	ef, err := EncodeFile(data, s)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(sk.Pub, ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	return sk, ef, prover
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 30, 31, 32, 1000, 12345} {
		data := make([]byte, n)
		rand.Read(data)
		ef, err := EncodeFile(data, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := ef.Decode(); !bytes.Equal(got, data) {
			t.Fatalf("round trip failed for %d bytes", n)
		}
	}
}

func TestEncodeFileRejectsBadS(t *testing.T) {
	if _, err := EncodeFile([]byte("x"), 0); err == nil {
		t.Fatal("accepted s = 0")
	}
}

func TestKeyGenRejectsBadS(t *testing.T) {
	if _, err := KeyGen(0, rand.Reader); err == nil {
		t.Fatal("accepted s = 0")
	}
}

func TestAuthenticatorVerification(t *testing.T) {
	sk, ef, prover := testSetup(t, 5, 400)
	if err := VerifyAuthenticators(sk.Pub, ef, prover.Auths, nil); err != nil {
		t.Fatalf("honest authenticators rejected: %v", err)
	}

	// Tamper with one authenticator: must be caught.
	bad := new(bn256.G1).Add(prover.Auths[1].Sigma, new(bn256.G1).ScalarBaseMult(big.NewInt(1)))
	orig := prover.Auths[1].Sigma
	prover.Auths[1].Sigma = bad
	if err := VerifyAuthenticators(sk.Pub, ef, prover.Auths, []int{1}); err == nil {
		t.Fatal("tampered authenticator accepted")
	}
	prover.Auths[1].Sigma = orig

	// Tamper with data instead: authenticator no longer matches.
	ef.Corrupt(2, 0)
	if err := VerifyAuthenticators(sk.Pub, ef, prover.Auths, []int{2}); err == nil {
		t.Fatal("authenticator accepted over corrupted data")
	}
}

func TestProveVerifyCompleteness(t *testing.T) {
	for _, tc := range []struct{ s, fileBytes, k int }{
		{1, 100, 3},   // degenerate chunk size
		{4, 500, 4},   // k equals available chunks exactly
		{10, 3100, 5}, // typical small
		{50, 20000, 8},
	} {
		_, ef, prover := testSetup(t, tc.s, tc.fileBytes)
		ch, err := NewChallenge(tc.k, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}

		proof, err := prover.Prove(ch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(prover.Pub, ef.NumChunks(), ch, proof) {
			t.Fatalf("s=%d k=%d: honest plain proof rejected", tc.s, tc.k)
		}

		priv, err := prover.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyPrivate(prover.Pub, ef.NumChunks(), ch, priv) {
			t.Fatalf("s=%d k=%d: honest private proof rejected", tc.s, tc.k)
		}
	}
}

func TestChallengeLargerThanFile(t *testing.T) {
	// k larger than the chunk count must clamp, not fail.
	_, ef, prover := testSetup(t, 4, 200)
	ch, _ := NewChallenge(1000, rand.Reader)
	proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyPrivate(prover.Pub, ef.NumChunks(), ch, proof) {
		t.Fatal("clamped challenge rejected")
	}
}

func TestVerifyRejectsCorruptedData(t *testing.T) {
	_, ef, prover := testSetup(t, 5, 2000)
	// Corrupt every chunk so any challenge hits corruption.
	for i := 0; i < ef.NumChunks(); i++ {
		ef.Corrupt(i, 0)
	}
	ch, _ := NewChallenge(3, rand.Reader)

	proof, err := prover.Prove(ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(prover.Pub, ef.NumChunks(), ch, proof) {
		t.Fatal("plain proof over corrupted data accepted")
	}

	priv, err := prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyPrivate(prover.Pub, ef.NumChunks(), ch, priv) {
		t.Fatal("private proof over corrupted data accepted")
	}
}

func TestVerifyRejectsMutatedProof(t *testing.T) {
	_, ef, prover := testSetup(t, 5, 1000)
	ch, _ := NewChallenge(3, rand.Reader)
	priv, err := prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate each component in turn; all must be rejected.
	mutations := []func(*PrivateProof){
		func(p *PrivateProof) { p.Sigma = new(bn256.G1).Add(p.Sigma, p.Sigma) },
		func(p *PrivateProof) {
			var one bn256.Scalar
			p.YPrime.Add(&p.YPrime, one.SetUint64(1))
		},
		func(p *PrivateProof) { p.Psi = new(bn256.G1).Add(p.Psi, p.Psi) },
		func(p *PrivateProof) { p.R = new(bn256.GT).Add(p.R, p.R) },
	}
	for i, mutate := range mutations {
		clone := &PrivateProof{
			Sigma:  new(bn256.G1).Set(priv.Sigma),
			YPrime: priv.YPrime,
			Psi:    new(bn256.G1).Set(priv.Psi),
			R:      priv.R, // a mutation replaces R, never writes to it
		}
		mutate(clone)
		if VerifyPrivate(prover.Pub, ef.NumChunks(), ch, clone) {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestProofReplayAcrossChallengesRejected(t *testing.T) {
	_, ef, prover := testSetup(t, 5, 1000)
	ch1, _ := NewChallenge(3, rand.Reader)
	ch2, _ := NewChallenge(3, rand.Reader)
	proof, err := prover.ProvePrivate(ch1, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyPrivate(prover.Pub, ef.NumChunks(), ch2, proof) {
		t.Fatal("proof for challenge 1 accepted under challenge 2")
	}
}

func TestProofMarshalRoundTrip(t *testing.T) {
	_, _, prover := testSetup(t, 5, 1000)
	ch, _ := NewChallenge(3, rand.Reader)

	proof, _ := prover.Prove(ch, nil)
	enc := proof.marshal()
	if len(enc) != proofSize {
		t.Fatalf("plain proof is %d bytes, want %d", len(enc), proofSize)
	}
	dec, err := unmarshalProof(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Sigma.Equal(proof.Sigma) || dec.Y != proof.Y || !dec.Psi.Equal(proof.Psi) {
		t.Fatal("plain proof round trip mismatch")
	}

	priv, _ := prover.ProvePrivate(ch, nil, rand.Reader)
	encP, err := priv.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(encP) != PrivateProofSize {
		t.Fatalf("private proof is %d bytes, want %d", len(encP), PrivateProofSize)
	}
	if PrivateProofSize != 288 {
		t.Fatalf("private proof size constant is %d, paper requires 288", PrivateProofSize)
	}
	decP, err := UnmarshalPrivateProof(encP)
	if err != nil {
		t.Fatal(err)
	}
	if !decP.Sigma.Equal(priv.Sigma) || decP.YPrime != priv.YPrime ||
		!decP.Psi.Equal(priv.Psi) || !decP.R.Equal(priv.R) {
		t.Fatal("private proof round trip mismatch")
	}
}

func TestProofUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := unmarshalProof(make([]byte, 10)); err == nil {
		t.Fatal("accepted short plain proof")
	}
	junk := bytes.Repeat([]byte{0xFF}, PrivateProofSize)
	if _, err := UnmarshalPrivateProof(junk); err == nil {
		t.Fatal("accepted garbage private proof")
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	sk, err := KeyGen(10, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, withPrivacy := range []bool{false, true} {
		enc, err := sk.Pub.Marshal(withPrivacy)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != sk.Pub.MarshalSize(withPrivacy) {
			t.Fatal("MarshalSize disagrees with Marshal")
		}
		pk, err := UnmarshalPublicKey(enc, withPrivacy)
		if err != nil {
			t.Fatal(err)
		}
		if pk.S != 10 || !pk.Epsilon.Equal(sk.Pub.Epsilon) || !pk.Delta.Equal(sk.Pub.Delta) ||
			pk.Name != sk.Pub.Name || !pk.EG1Eps.Equal(sk.Pub.EG1Eps) {
			t.Fatal("public key round trip mismatch")
		}
		for j := range pk.Powers {
			if !pk.Powers[j].Equal(sk.Pub.Powers[j]) {
				t.Fatalf("power %d mismatch", j)
			}
		}
	}
	if _, err := UnmarshalPublicKey([]byte{1, 2}, false); err == nil {
		t.Fatal("accepted truncated public key")
	}
}

func TestUnmarshalledKeyVerifies(t *testing.T) {
	// A verifier reconstructing the key purely from chain bytes must be
	// able to verify proofs.
	_, ef, prover := testSetup(t, 6, 800)
	enc, err := prover.Pub.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	pk2, err := UnmarshalPublicKey(enc, true)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := NewChallenge(3, rand.Reader)
	priv, err := prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyPrivate(pk2, ef.NumChunks(), ch, priv) {
		t.Fatal("proof rejected under deserialized public key")
	}
}

func TestProveStatsPopulated(t *testing.T) {
	_, _, prover := testSetup(t, 10, 5000)
	ch, _ := NewChallenge(5, rand.Reader)
	var stats ProveStats
	if _, err := prover.ProvePrivate(ch, &stats, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if stats.ECC <= 0 || stats.Zp <= 0 {
		t.Fatalf("timing stats not populated: %+v", stats)
	}
}

// marshal encodes the proof in its 96-byte on-chain form.
func (p *Proof) marshal() []byte {
	out := make([]byte, 0, proofSize)
	out = append(out, p.Sigma.MarshalCompressed()...)
	y := p.Y.Bytes()
	out = append(out, y[:]...)
	out = append(out, p.Psi.MarshalCompressed()...)
	return out
}

// unmarshalProof parses a 96-byte proof, rejecting non-canonical encodings.
func unmarshalProof(data []byte) (*Proof, error) {
	if len(data) != proofSize {
		return nil, ErrMalformed
	}
	p := &Proof{Sigma: new(bn256.G1), Psi: new(bn256.G1)}
	if err := p.Sigma.UnmarshalCompressed(data[:32]); err != nil {
		return nil, err
	}
	if err := p.Y.SetBytes(data[32:64]); err != nil {
		return nil, err
	}
	if err := p.Psi.UnmarshalCompressed(data[64:96]); err != nil {
		return nil, err
	}
	return p, nil
}
