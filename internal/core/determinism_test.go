package core

import (
	"bytes"
	"crypto/rand"
	"runtime"
	"testing"
)

// workerCounts is the parallelism ladder every determinism test walks:
// serial, the paper's quad-core setting, and whatever this machine has.
func workerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// TestSetupDeterministicAcrossWorkers pins the pipeline's core guarantee:
// SetupParallel produces byte-identical authenticators at parallelism 1, 4
// and GOMAXPROCS (and Setup, the GOMAXPROCS default, matches them).
func TestSetupDeterministicAcrossWorkers(t *testing.T) {
	sk, ef, _ := testSetup(t, 4, 2000)
	want, err := SetupParallel(sk, ef, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, got []*Authenticator) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d authenticators, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index ||
				!bytes.Equal(got[i].Sigma.Marshal(), want[i].Sigma.Marshal()) {
				t.Fatalf("%s: authenticator %d diverges from serial", label, i)
			}
		}
	}
	for _, workers := range workerCounts()[1:] {
		got, err := SetupParallel(sk, ef, workers)
		if err != nil {
			t.Fatal(err)
		}
		check("workers", got)
	}
	got, err := Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	check("Setup default", got)
}

// TestProveDeterministicAcrossWorkers checks the prover's parallel MSMs:
// the same challenge yields a byte-identical non-private proof at any
// Workers setting.
func TestProveDeterministicAcrossWorkers(t *testing.T) {
	_, _, prover := testSetup(t, 4, 1500)
	ch, err := NewChallenge(10, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prover.Workers = 1
	want, err := prover.Prove(ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts()[1:] {
		prover.Workers = workers
		got, err := prover.Prove(ch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Sigma.Marshal(), want.Sigma.Marshal()) ||
			got.Y != want.Y ||
			!bytes.Equal(got.Psi.Marshal(), want.Psi.Marshal()) {
			t.Fatalf("workers=%d: proof diverges from serial", workers)
		}
	}
}

// TestVerifyBatchDeterministicAcrossWorkers plants one cheater in a batch
// and checks VerifyBatchParallel returns identical verdicts — and walks an
// identical bisection, measured through the stats counters — at parallelism
// 1, 4 and GOMAXPROCS.
func TestVerifyBatchDeterministicAcrossWorkers(t *testing.T) {
	const n = 8
	items := make([]*BatchItem, n)
	_, ef, prover := testSetup(t, 4, 600)
	for i := range items {
		ch, err := NewChallenge(3, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = &BatchItem{Pub: prover.Pub, NumChunks: ef.NumChunks(), Challenge: ch, Proof: proof}
	}
	// Inject the cheater: item 5 replays item 0's masked response.
	items[5].Proof.YPrime = items[0].Proof.YPrime

	var wantStats BatchStats
	want := VerifyBatchParallel(items, &wantStats, 1)
	for i, v := range want {
		if v != (i != 5) {
			t.Fatalf("serial verdicts wrong: %v", want)
		}
	}
	for _, workers := range workerCounts()[1:] {
		var stats BatchStats
		got := VerifyBatchParallel(items, &stats, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: verdict %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
		if stats != wantStats {
			t.Fatalf("workers=%d: stats %+v diverge from serial %+v", workers, stats, wantStats)
		}
	}
}
