package core

import (
	"crypto/rand"
	"testing"

	"repro/internal/bn256"
)

// TestKnowledgeExtractor runs the Theorem 1 rewinding experiment: two
// accepting transcripts with the same commitment but different challenges
// yield the hidden evaluation y = Pk(r), which must equal the value the
// non-private protocol exposes directly.
func TestKnowledgeExtractor(t *testing.T) {
	_, ef, prover := testSetup(t, 5, 1200)
	ch, err := NewChallenge(3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth from the non-private protocol.
	plain, err := prover.Prove(ch, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Forked transcripts: same mask z, different challenges.
	var z, zeta1, zeta2 bn256.Scalar
	for _, v := range []*bn256.Scalar{&z, &zeta1, &zeta2} {
		if err := v.SetRandom(nil); err != nil {
			t.Fatal(err)
		}
	}
	if zeta1 == zeta2 {
		t.Skip("negligible-probability collision")
	}
	p1, err := prover.ProveWithChallenge(ch, zeta1, z)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := prover.ProveWithChallenge(ch, zeta2, z)
	if err != nil {
		t.Fatal(err)
	}

	// Both transcripts must verify under their challenges.
	d := ef.NumChunks()
	if !VerifyWithChallenge(prover.Pub, d, ch, p1, zeta1) {
		t.Fatal("transcript 1 rejected")
	}
	if !VerifyWithChallenge(prover.Pub, d, ch, p2, zeta2) {
		t.Fatal("transcript 2 rejected")
	}

	// Extraction recovers y.
	y, err := ExtractEvaluation(
		&ForkedTranscript{Zeta: zeta1, YPrime: p1.YPrime},
		&ForkedTranscript{Zeta: zeta2, YPrime: p2.YPrime},
	)
	if err != nil {
		t.Fatal(err)
	}
	if y != plain.Y {
		t.Fatal("extractor did not recover Pk(r)")
	}
}

func TestExtractorRejectsEqualChallenges(t *testing.T) {
	var z, y1, y2 bn256.Scalar
	z.SetUint64(7)
	y1.SetUint64(1)
	y2.SetUint64(2)
	if _, err := ExtractEvaluation(
		&ForkedTranscript{Zeta: z, YPrime: y1},
		&ForkedTranscript{Zeta: z, YPrime: y2},
	); err == nil {
		t.Fatal("accepted equal challenges")
	}
}

func TestSetupParallelMatchesSequential(t *testing.T) {
	sk, err := KeyGen(6, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3000)
	rand.Read(data)
	ef, err := EncodeFile(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4, 100} {
		par, err := SetupParallel(sk, ef, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d authenticators", workers, len(par))
		}
		for i := range seq {
			if par[i].Index != seq[i].Index || !par[i].Sigma.Equal(seq[i].Sigma) {
				t.Fatalf("workers=%d: authenticator %d differs", workers, i)
			}
		}
	}
}

func TestSetupParallelValidation(t *testing.T) {
	sk, _ := KeyGen(4, rand.Reader)
	ef, _ := EncodeFile([]byte("xx"), 5) // mismatched s
	if _, err := SetupParallel(sk, ef, 2); err == nil {
		t.Fatal("accepted s mismatch")
	}
}
