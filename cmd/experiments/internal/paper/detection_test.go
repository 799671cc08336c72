package paper

import (
	"crypto/rand"
	"math"
	"testing"

	"repro/internal/core"
)

// testSetup builds a small complete instance: key, file, authenticators.
func testSetup(t *testing.T, s, fileBytes int) (*core.PrivateKey, *core.EncodedFile, *core.Prover) {
	t.Helper()
	sk, err := core.KeyGen(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, fileBytes)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	ef, err := core.EncodeFile(data, s)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := core.Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := core.NewProver(sk.Pub, ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	return sk, ef, prover
}

func TestDetectionProbability(t *testing.T) {
	// Sampling all chunks always detects.
	if got := DetectionProbability(100, 1, 100); got != 1 {
		t.Fatalf("full sampling detection = %v, want 1", got)
	}
	// No corruption: never detects.
	if got := DetectionProbability(100, 0, 50); got != 0 {
		t.Fatalf("no corruption detection = %v, want 0", got)
	}
	// The paper's anchor: k=300, 1% corruption => ~95%.
	got := DetectionProbability(100000, 1000, 300)
	if got < 0.94 || got > 0.96 {
		t.Fatalf("k=300 at 1%% corruption: detection = %v, want ~0.95", got)
	}
	// Monotone in k.
	if DetectionProbability(10000, 100, 100) >= DetectionProbability(10000, 100, 200) {
		t.Fatal("detection probability not monotone in k")
	}
}

func TestChunksForConfidence(t *testing.T) {
	// Paper: 95% at 1% corruption needs ~300 challenged chunks.
	k := ChunksForConfidence(0.95, 0.01)
	if k < 290 || k > 305 {
		t.Fatalf("k for 95%%@1%% = %d, want ~300", k)
	}
	// Fig. 9 endpoints: 91% -> ~240, 99% -> ~460.
	if k := ChunksForConfidence(0.91, 0.01); math.Abs(float64(k)-240) > 5 {
		t.Fatalf("k for 91%% = %d, want ~240", k)
	}
	if k := ChunksForConfidence(0.99, 0.01); math.Abs(float64(k)-460) > 5 {
		t.Fatalf("k for 99%% = %d, want ~460", k)
	}
	if ChunksForConfidence(1.5, 0.01) != 0 || ChunksForConfidence(0.5, 0) != 0 {
		t.Fatal("out-of-range inputs should return 0")
	}
}

func TestDetectionMatchesEmpiricalAudit(t *testing.T) {
	// Statistical integration check: corrupt a fraction of chunks and
	// measure how often a real audit catches it.
	if testing.Short() {
		t.Skip("statistical test")
	}
	_, ef, prover := testSetup(t, 2, 4000) // ~65 chunks
	d := ef.NumChunks()
	corrupt := d / 10
	for i := 0; i < corrupt; i++ {
		ef.Corrupt(i, 0)
	}
	const trials = 40
	k := 5
	detected := 0
	for i := 0; i < trials; i++ {
		ch, _ := core.NewChallenge(k, rand.Reader)
		proof, err := prover.Prove(ch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !core.Verify(prover.Pub, d, ch, proof) {
			detected++
		}
	}
	want := DetectionProbability(d, corrupt, k)
	got := float64(detected) / trials
	if math.Abs(got-want) > 0.3 {
		t.Fatalf("empirical detection %v too far from model %v", got, want)
	}
}
