package core

import (
	"crypto/rand"
	mrand "math/rand"
	"slices"
	"testing"
)

// maxSlots is the largest block the isolation fixtures hold.
const maxSlots = 33

// cheatFixture holds, per owner key, maxSlots slots' worth of prepared
// proofs: each slot's honest answer to its challenge, and a cheater's answer
// to another challenge submitted against it.
type cheatFixture struct {
	honest, bad [2][]*PreparedProof
}

func newCheatFixture(tb testing.TB) *cheatFixture {
	tb.Helper()
	fx := &cheatFixture{}
	for o := range fx.honest {
		_, ef, prover := fuzzSetup(tb)
		prepare := func(ch, answered *Challenge) *PreparedProof {
			proof, err := prover.ProvePrivate(answered, nil, rand.Reader)
			if err != nil {
				tb.Fatal(err)
			}
			raw, err := proof.Marshal()
			if err != nil {
				tb.Fatal(err)
			}
			p, err := PrepareProof(prover.Pub, ef.NumChunks(), ch, raw)
			if err != nil {
				tb.Fatal(err)
			}
			return p
		}
		for i := 0; i < maxSlots; i++ {
			ch, err := NewChallenge(2, rand.Reader)
			if err != nil {
				tb.Fatal(err)
			}
			other, err := NewChallenge(2, rand.Reader)
			if err != nil {
				tb.Fatal(err)
			}
			fx.honest[o] = append(fx.honest[o], prepare(ch, ch))
			fx.bad[o] = append(fx.bad[o], prepare(ch, other))
		}
	}
	return fx
}

// block returns a block of n slots, slot i under owner key i%keys, the slots
// bad names cheating.
func (fx *cheatFixture) block(n, keys int, bad func(i int) bool) []*PreparedProof {
	preps := make([]*PreparedProof, n)
	for i := range preps {
		if bad(i) {
			preps[i] = fx.bad[i%keys][i]
		} else {
			preps[i] = fx.honest[i%keys][i]
		}
	}
	return preps
}

// TestIsolateLoneCheater plants one cheater at every position of blocks of
// 2, 3, 8, 24 and 33 slots under one and two owner keys: the search names
// exactly it with one evaluation beyond the block's own, each of 2K+1 Miller
// loops.
func TestIsolateLoneCheater(t *testing.T) {
	fx := newCheatFixture(t)
	for _, keys := range []int{1, 2} {
		for _, n := range []int{2, 3, 8, 24, maxSlots} {
			for bad := 0; bad < n; bad++ {
				var stats BatchStats
				for i, ok := range VerifyPrepared(fx.block(n, keys, func(i int) bool { return i == bad }), &stats, 0) {
					if ok != (i != bad) {
						t.Errorf("K=%d N=%d cheater %d: slot %d verdict %v", keys, n, bad, i, ok)
					}
				}
				if want := (BatchStats{FinalExps: 2, MillerLoops: 2 * (2*keys + 1)}); stats != want {
					t.Errorf("K=%d N=%d cheater %d: stats %+v, want %+v", keys, n, bad, stats, want)
				}
			}
		}
	}
}

// TestIsolateRandomMasks draws seeded masks of d = 0..16 cheaters in a block
// of 16 under two owner keys: every verdict is the item's own VerifyPrivate's,
// the stats are the same at 1, 2 and 8 workers, and the search never spends
// more evaluations than the binary search it replaced (bisectEvals).
func TestIsolateRandomMasks(t *testing.T) {
	const n = 16
	fx := newCheatFixture(t)
	verifyPrivate := make(map[*PreparedProof]bool) // each proof's own verdict, once
	rng := mrand.New(mrand.NewSource(38))
	for d := 0; d <= n; d++ {
		bad := make([]bool, n)
		for _, i := range rng.Perm(n)[:d] {
			bad[i] = true
		}
		preps := fx.block(n, 2, func(i int) bool { return bad[i] })
		want := make([]bool, n)
		for i, p := range preps {
			if _, done := verifyPrivate[p]; !done {
				verifyPrivate[p] = VerifyPrivate(p.pub, p.numChunks, &p.challenge, p.proof)
			}
			if want[i] = verifyPrivate[p]; want[i] == bad[i] {
				t.Fatalf("d=%d: VerifyPrivate of slot %d is %v; the fixture is not what it says", d, i, want[i])
			}
		}
		var serial BatchStats
		for _, workers := range []int{1, 2, 8} {
			var stats BatchStats
			for i, got := range VerifyPrepared(preps, &stats, workers) {
				if got != want[i] {
					t.Errorf("d=%d workers=%d: slot %d verdict %v, VerifyPrivate %v", d, workers, i, got, want[i])
				}
			}
			if workers == 1 {
				serial = stats
			} else if stats != serial {
				t.Errorf("d=%d workers=%d: stats %+v diverge from serial %+v", d, workers, stats, serial)
			}
		}
		old := bisectEvals(bad, false)
		t.Logf("d=%2d: %2d evaluations, bisection %2d", d, serial.FinalExps, old)
		if serial.FinalExps > old {
			t.Errorf("d=%d: %d evaluations, bisection needed only %d", d, serial.FinalExps, old)
		}
	}
}

// bisectEvals counts the evaluations of the binary search the isolation
// replaced, over a block whose cheaters bad marks: the block, then at every
// failed sub-batch of more than one slot its left half, and its right half
// unless the left passed and so pinned the failure in it (knownBad).
func bisectEvals(bad []bool, knownBad bool) int {
	evals := 0
	if !knownBad {
		evals++
		if !slices.Contains(bad, true) {
			return evals
		}
	}
	if len(bad) == 1 {
		return evals
	}
	left, right := bad[:len(bad)/2], bad[len(bad)/2:]
	return evals + bisectEvals(left, false) + bisectEvals(right, !slices.Contains(left, true))
}

// TestIsolateUnexpandableChallenge puts an item whose challenge does not
// expand among honest ones: it fails before any evaluation, and the rest
// pass on the block's one.
func TestIsolateUnexpandableChallenge(t *testing.T) {
	fx := newCheatFixture(t)
	const n, broken = 8, 3
	preps := fx.block(n, 2, func(int) bool { return false })
	p := preps[broken]
	unexpandable, err := PrepareProof(p.pub, -1, &p.challenge, p.raw)
	if err != nil {
		t.Fatal(err)
	}
	preps[broken] = unexpandable
	var stats BatchStats
	for i, ok := range VerifyPrepared(preps, &stats, 0) {
		if ok != (i != broken) {
			t.Errorf("slot %d verdict %v", i, ok)
		}
	}
	if stats.FinalExps != 1 {
		t.Fatalf("%d final exps, want 1", stats.FinalExps)
	}
}

// FuzzVerifyPreparedMask holds the search to blocks of 1 to 33 slots under
// two owner keys with the cheaters a bitmask names: every verdict is the
// mask's, a clean block costs one evaluation and a lone cheater among others
// two.
func FuzzVerifyPreparedMask(f *testing.F) {
	fx := newCheatFixture(f)
	f.Add(uint8(maxSlots), uint64(1))               // a lone cheater first
	f.Add(uint8(maxSlots), uint64(1)<<(maxSlots-1)) // and last
	f.Add(uint8(8), uint64(0b11000))                // two adjacent
	f.Add(uint8(3), uint64(0b101))                  // one in each half
	f.Add(uint8(1), uint64(1))                      // a block of one cheater
	f.Add(uint8(maxSlots), uint64(1)<<maxSlots-1)   // all bad
	f.Fuzz(func(t *testing.T, size uint8, mask uint64) {
		n := 1 + (int(size)+maxSlots-1)%maxSlots // size mod 33, in 1..33
		bad := func(i int) bool { return mask>>i&1 == 1 }
		var stats BatchStats
		cheaters := 0
		for i, ok := range VerifyPrepared(fx.block(n, 2, bad), &stats, 0) {
			if ok == bad(i) {
				t.Fatalf("N=%d mask %b: slot %d verdict %v", n, mask, i, ok)
			}
			if bad(i) {
				cheaters++
			}
		}
		want := 1 // a clean block, or a block of one
		if cheaters == 1 && n > 1 {
			want = 2
		}
		if cheaters <= 1 && stats.FinalExps != want {
			t.Fatalf("N=%d mask %b: %d final exps for %d cheaters", n, mask, stats.FinalExps, cheaters)
		}
	})
}
