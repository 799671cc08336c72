package core

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"io"
	"testing"

	"repro/internal/bn256"
)

// batchCase is one batch of TestVerifyBatchMatchesVerifyPrivate's table.
type batchCase struct {
	name  string
	items []*BatchItem
	bad   []int
}

// batchCases rebuilds TestVerifyBatchMatchesVerifyPrivate's case table with
// challenges of k chunks, over two owners' files of at least k chunks, the
// wrong challenge swept over the given positions of a five-item batch.
func batchCases(t *testing.T, k int, positions []int) []batchCase {
	t.Helper()
	provers := make([]*Prover, 2)
	for i := range provers {
		_, _, provers[i] = testSetup(t, 4, 4*BlockSize*k+600)
		if provers[i].File.NumChunks() < k {
			t.Fatalf("file of %d chunks for k = %d", provers[i].File.NumChunks(), k)
		}
	}
	honest := func(o int, rng io.Reader) *BatchItem {
		t.Helper()
		ch, err := NewChallenge(k, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := provers[o].ProvePrivate(ch, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		return &BatchItem{Pub: provers[o].Pub, NumChunks: provers[o].File.NumChunks(), Challenge: ch, Proof: proof}
	}
	ok := func(o int) *BatchItem { return honest(o, rand.Reader) }
	wrongChallenge := func(o int) *BatchItem {
		it := ok(o)
		it.Proof = ok(o).Proof
		return it
	}

	var cases []batchCase
	dup := ok(0)
	cases = append(cases, batchCase{"the same proof in two slots", []*BatchItem{ok(0), dup, ok(1), dup}, nil})

	first, negated := ok(0), ok(0)
	forged := *negated.Proof
	forged.Sigma = new(bn256.G1).Neg(first.Proof.Sigma)
	negated.Proof = &forged
	cases = append(cases, batchCase{"sigma_j = -sigma_i", []*BatchItem{first, ok(0), negated}, []int{2}})

	mask := make([]byte, 256)
	rand.Read(mask)
	first, second := honest(0, bytes.NewReader(mask)), honest(0, bytes.NewReader(mask))
	if !first.Proof.R.Equal(second.Proof.R) {
		t.Fatal("the same mask gave two commitments; the repeated-R case is not exercised")
	}
	cases = append(cases, batchCase{"two items with the same R", []*BatchItem{first, ok(0), second}, nil})

	for _, pos := range positions {
		items := []*BatchItem{ok(0), ok(0), ok(0), ok(0), ok(0)}
		items[pos] = wrongChallenge(0)
		cases = append(cases, batchCase{fmt.Sprintf("wrong challenge at position %d of 5", pos), items, []int{pos}})
	}

	cases = append(cases, batchCase{"two keys interleaved, a cheater under each",
		[]*BatchItem{ok(0), ok(1), wrongChallenge(0), wrongChallenge(1), ok(0), ok(1)}, []int{2, 3}})

	unexpandable := ok(0)
	unexpandable.NumChunks = -1
	cases = append(cases, batchCase{"a challenge that cannot expand, in the middle",
		[]*BatchItem{ok(0), ok(1), unexpandable, ok(0), ok(1)}, []int{2}})
	return cases
}

// prepareFromBytes runs PrepareProof over each distinct item's marshalled
// proof, the way a prove worker does on arrival; an item in several slots
// gets one PreparedProof.
func prepareFromBytes(t *testing.T, items []*BatchItem) []*PreparedProof {
	t.Helper()
	byItem := make(map[*BatchItem]*PreparedProof)
	preps := make([]*PreparedProof, len(items))
	for i, it := range items {
		if p, seen := byItem[it]; seen {
			preps[i] = p
			continue
		}
		raw, err := it.Proof.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		p, err := PrepareProof(it.Pub, it.NumChunks, it.Challenge, raw)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Matches(it.Pub, it.NumChunks, it.Challenge, raw) {
			t.Fatal("a prepared item does not match what it was made from")
		}
		byItem[it], preps[i] = p, p
	}
	return preps
}

// carriedTags is the encoding of the tags (or chi) p carries.
func carriedTags(p *PreparedProof) []byte {
	var out []byte
	for _, tag := range p.tags {
		out = append(out, tag.Marshal()...)
	}
	return out
}

// TestVerifyPreparedMatchesUnprepared verifies every batch of the
// VerifyPrivate case table four ways — unprepared (VerifyBatchParallel),
// prepared on arrival from each item's marshalled bytes with the tag memo
// emptied first (cold) and again with it filled (warm), and a mix of
// unprepared and cold — at one and two workers and at k = 8 (the tags
// carried into the block) and k = 300 (collapsed into chi): cold and warm
// items must carry the same tags or chi, byte for byte, the verdicts and
// BatchStats must be those of the unprepared serial run, and no run may
// write into a prepared item, which duplicate slots and bisection share.
// The bisection paths do not depend on k, so at k = 300 the wrong challenge
// is swept over the first and last position only.
func TestVerifyPreparedMatchesUnprepared(t *testing.T) {
	for _, k := range []int{8, 300} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			positions := []int{0, 1, 2, 3, 4}
			if k > 8 {
				positions = []int{0, 4}
			}
			for _, c := range batchCases(t, k, positions) {
				// The unprepared serial run, VerifyBatchParallel(c.items, &serial, 1),
				// with its per-item step kept for the mixed batch.
				unprepared := prepareItems(c.items, 1)
				var serial BatchStats
				want := VerifyPrepared(unprepared, &serial, 1)
				isBad := make([]bool, len(c.items))
				for _, i := range c.bad {
					isBad[i] = true
				}
				for i := range want {
					if want[i] == isBad[i] {
						t.Fatalf("%s: unprepared verdict of item %d is %v; the case is not what it says", c.name, i, want[i])
					}
				}

				resetTagMemo()
				prepared := prepareFromBytes(t, c.items)
				warm := prepareFromBytes(t, c.items)
				for i := range prepared {
					if !bytes.Equal(carriedTags(prepared[i]), carriedTags(warm[i])) {
						t.Fatalf("%s: item %d carries other tags prepared warm than cold", c.name, i)
					}
				}
				mixed := make([]*PreparedProof, len(c.items))
				for i := range mixed {
					mixed[i] = unprepared[i]
					if i%2 == 0 {
						mixed[i] = prepared[i]
					}
				}
				if c.name == "the same proof in two slots" {
					for _, preps := range [][]*PreparedProof{prepared, unprepared, prepareItems(c.items, 2)} {
						if preps[1] != preps[3] {
							t.Fatalf("%s: the two slots do not share one prepared item", c.name)
						}
					}
				}
				wantTags := k
				if collapseTags(k) {
					wantTags = 1
				}
				for i, p := range prepared {
					if p.ok && len(p.tags) != wantTags {
						t.Fatalf("%s: item %d carries %d tag points, want %d", c.name, i, len(p.tags), wantTags)
					}
				}
				snapshot := func() [][]bn256.Scalar {
					var out [][]bn256.Scalar
					for _, p := range append(append(append([]*PreparedProof(nil), prepared...), warm...), unprepared...) {
						out = append(out, append([]bn256.Scalar(nil), p.coeffs...))
					}
					return out
				}
				before := snapshot()

				for _, workers := range []int{1, 2} {
					for _, mode := range []struct {
						name   string
						verify func(*BatchStats) []bool
					}{
						{"unprepared", func(st *BatchStats) []bool { return VerifyBatchParallel(c.items, st, workers) }},
						{"prepared", func(st *BatchStats) []bool { return VerifyPrepared(prepared, st, workers) }},
						{"warm", func(st *BatchStats) []bool { return VerifyPrepared(warm, st, workers) }},
						{"mixed", func(st *BatchStats) []bool { return VerifyPrepared(mixed, st, workers) }},
					} {
						if mode.name == "unprepared" && workers == 1 {
							continue // the reference run
						}
						var stats BatchStats
						for i, got := range mode.verify(&stats) {
							if got != want[i] {
								t.Errorf("%s %s workers=%d: item %d verdict %v, want %v", c.name, mode.name, workers, i, got, want[i])
							}
						}
						if stats != serial {
							t.Errorf("%s %s workers=%d: stats %+v, want %+v", c.name, mode.name, workers, stats, serial)
						}
					}
				}
				after := snapshot()
				for i := range before {
					for j := range before[i] {
						if before[i][j] != after[i][j] {
							t.Fatalf("%s: verification wrote into a prepared item's coefficients", c.name)
						}
					}
				}
			}
		})
	}
}

// TestCollapseTagsCrossover pins where the per-item step collapses the tags
// into chi: not at the fleets' k = 8, at the paper's k = 300, and at every
// k above the first that collapses, so the cost model's answer is one
// crossover and not a pattern.
func TestCollapseTagsCrossover(t *testing.T) {
	if collapseTags(8) {
		t.Error("k = 8 collapses its tags")
	}
	if !collapseTags(300) {
		t.Error("k = 300 carries its tags into the block")
	}
	first := 0
	for k := 1; k <= 1000; k++ {
		if collapseTags(k) && first == 0 {
			first = k
		}
		if first != 0 && !collapseTags(k) {
			t.Fatalf("k = %d collapses and k = %d does not", first, k)
		}
	}
	t.Logf("tags collapse from k = %d", first)
}
