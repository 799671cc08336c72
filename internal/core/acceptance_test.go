package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bn256"
)

// plant replaces authenticator i by sigma_i + delta and returns the undo.
func plant(auths []*Authenticator, i int, delta *bn256.G1) func() {
	orig := auths[i].Sigma
	auths[i].Sigma = new(bn256.G1).Add(orig, delta)
	return func() { auths[i].Sigma = orig }
}

// TestAcceptanceNamesCulprit plants a bad authenticator at each sampled
// position in turn, then two at once: the combined check rejects and the
// error names the first bad index of the sample, in the per-index wording.
func TestAcceptanceNamesCulprit(t *testing.T) {
	sk, ef, prover := testSetup(t, 4, 1500) // 13 chunks
	auths := prover.Auths
	sample := []int{0, 3, 5, 8, 12}
	wantErr := func(err error, i int) {
		t.Helper()
		want := fmt.Sprintf("core: authenticator %d failed verification", i)
		if err == nil || err.Error() != want {
			t.Fatalf("error = %v, want %q", err, want)
		}
	}
	g := bn256.GenG1()
	for _, i := range sample {
		undo := plant(auths, i, g)
		wantErr(VerifyAuthenticators(sk.Pub, ef, auths, sample), i)
		wantErr(VerifyAuthenticators(sk.Pub, ef, auths, nil), i)
		undo()
	}
	undo8, undo3 := plant(auths, 8, g), plant(auths, 3, g)
	wantErr(VerifyAuthenticators(sk.Pub, ef, auths, sample), 3)
	wantErr(VerifyAuthenticators(sk.Pub, ef, auths, []int{12, 8, 3}), 8)
	undo8()
	undo3()

	// A bad authenticator outside the sample is not this check's to find.
	defer plant(auths, 4, g)()
	if err := VerifyAuthenticators(sk.Pub, ef, auths, sample); err != nil {
		t.Fatalf("sample of good authenticators rejected: %v", err)
	}
}

// TestAcceptanceRejectsCancellingPair offsets two sampled authenticators by
// Delta and -Delta: their errors cancel in an unweighted product -- which
// the equation under all-ones weights confirms -- so only the random
// weights stand between this owner and acceptance.
func TestAcceptanceRejectsCancellingPair(t *testing.T) {
	sk, ef, prover := testSetup(t, 4, 1500)
	auths := prover.Auths
	sample := []int{1, 4, 6, 9}
	delta := bn256.HashToG1([]byte("delta"))
	defer plant(auths, 4, delta)()
	defer plant(auths, 9, new(bn256.G1).Neg(delta))()

	ones := make([]bn256.Scalar, len(sample))
	for i := range ones {
		ones[i].SetUint64(1)
	}
	if !authenticatorsHold(sk.Pub, ef, auths, sample, ones) {
		t.Fatal("the pair does not cancel under equal weights: the test plants nothing")
	}
	for run := 0; run < 64; run++ {
		err := VerifyAuthenticators(sk.Pub, ef, auths, sample)
		if err == nil || err.Error() != "core: authenticator 4 failed verification" {
			t.Fatalf("run %d: error = %v, want authenticator 4 named", run, err)
		}
	}
}

func TestAcceptanceSampleShapes(t *testing.T) {
	sk, ef, prover := testSetup(t, 4, 1500)
	auths := prover.Auths
	for _, sample := range [][]int{{7}, nil, {}, {2, 2}, {5, 0, 5, 12, 0}} {
		if err := VerifyAuthenticators(sk.Pub, ef, auths, sample); err != nil {
			t.Errorf("sample %v: honest authenticators rejected: %v", sample, err)
		}
	}

	undo := plant(auths, 2, bn256.GenG1())
	if err := VerifyAuthenticators(sk.Pub, ef, auths, []int{2, 2}); err == nil {
		t.Error("bad authenticator sampled twice accepted")
	}
	// Index checks cover the whole sample before any group operation: the
	// bad authenticator 2 ahead of the bad index is never reached.
	for _, sample := range [][]int{{2, len(auths)}, {2, -1}} {
		if err := VerifyAuthenticators(sk.Pub, ef, auths, sample); !errors.Is(err, errBadParameters) {
			t.Errorf("sample %v: error = %v, want ErrBadParameters", sample, err)
		}
	}
	undo()
	auths[6].Index = 5
	if err := VerifyAuthenticators(sk.Pub, ef, auths, []int{2, 6}); !errors.Is(err, errBadParameters) {
		t.Errorf("mislabelled authenticator: error = %v, want ErrBadParameters", err)
	}
}

// TestAcceptanceAtEveryParallelism forges one authenticator (chunk 2's sigma
// offered for chunk 7) and checks, at GOMAXPROCS 1 and 2, that the
// concurrent check rejects it and names the chunk a serial per-chunk
// reference, e(sigma_i, g2) = e(g1^{M_i(alpha)} * H(name||i), eps), names first.
func TestAcceptanceAtEveryParallelism(t *testing.T) {
	sk, ef, prover := testSetup(t, 4, 1500) // 13 chunks
	auths := prover.Auths
	firstBad := func(sample []int) int {
		for _, i := range sample {
			m := new(bn256.G1).MultiScalarMult(sk.Pub.Powers, ef.Chunks[i].Coeffs)
			m.Add(m, sk.Pub.blockTag(i))
			if !bn256.Pair(auths[i].Sigma, bn256.GenG2()).Equal(bn256.Pair(m, sk.Pub.Epsilon)) {
				return i
			}
		}
		return -1
	}
	orig := auths[7].Sigma
	defer func() { auths[7].Sigma = orig }()
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			auths[7].Sigma = orig
			if err := VerifyAuthenticators(sk.Pub, ef, auths, nil); err != nil {
				t.Fatalf("GOMAXPROCS %d: honest authenticators rejected: %v", procs, err)
			}
			auths[7].Sigma = new(bn256.G1).Set(auths[2].Sigma)
			for _, sample := range [][]int{nil, {0, 12, 7, 3}, {7}} {
				checked := sample
				if checked == nil {
					checked = make([]int, ef.NumChunks())
					for i := range checked {
						checked[i] = i
					}
				}
				want := firstBad(checked)
				if want != 7 {
					t.Fatalf("reference names chunk %d, want the forged 7", want)
				}
				err := VerifyAuthenticators(sk.Pub, ef, auths, sample)
				if msg := fmt.Sprintf("core: authenticator %d failed verification", want); err == nil || err.Error() != msg {
					t.Errorf("GOMAXPROCS %d, sample %v: error = %v, want %q", procs, sample, err, msg)
				}
			}
		}()
	}
}
