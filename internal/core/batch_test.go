package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/big"
	"testing"

	"repro/internal/bn256"
	"repro/internal/prf"
)

func TestBatchVerify(t *testing.T) {
	const users = 3
	items := make([]*BatchItem, users)
	for i := range items {
		_, ef, prover := testSetup(t, 4, 600+i*100)
		ch, err := NewChallenge(3, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = &BatchItem{
			Pub:       prover.Pub,
			NumChunks: ef.NumChunks(),
			Challenge: ch,
			Proof:     proof,
		}
	}
	if !batchVerify(items) {
		t.Fatal("honest batch rejected")
	}

	// Corrupt one member: the whole batch must fail.
	items[1].Proof.YPrime = items[0].Proof.YPrime
	if batchVerify(items) {
		t.Fatal("batch with one bad proof accepted")
	}
}

func TestBatchVerifyEmpty(t *testing.T) {
	if !batchVerify(nil) {
		t.Fatal("empty batch should verify")
	}
	if got := VerifyBatchParallel(nil, nil, 0); len(got) != 0 {
		t.Fatal("empty VerifyBatchParallel should return no verdicts")
	}
}

// TestBatchWeightEncodesFullIndex pins the weight-derivation fix: the batch
// index is hashed as 4 big-endian bytes, so positions 0 and 256 (identical
// mod 256, which the old single-byte encoding conflated) get independent
// weights.
func TestBatchWeightEncodesFullIndex(t *testing.T) {
	r := make([]byte, 48)
	for i := range r {
		r[i] = byte(i * 7)
	}
	if batchWeight(r, 0) == batchWeight(r, 256) {
		t.Fatal("batch positions 0 and 256 share a weight: index truncated mod 256")
	}
	if batchWeight(r, 1) == batchWeight(r, 257) {
		t.Fatal("batch positions 1 and 257 share a weight: index truncated mod 256")
	}
	// Sanity: the weight is still deterministic and ~128 bits.
	w := batchWeight(r, 3)
	if w != batchWeight(r, 3) {
		t.Fatal("weight not deterministic")
	}
	if n := w.Big().BitLen(); n > 130 {
		t.Fatalf("weight too wide: %d bits", n)
	}
}

// TestBatchWeightMatchesBigRule holds batchWeight to the rule it is defined
// by, computed in math/big: H'(digest || i) >> 126, and 1 where that is 0.
// The weights are what make a batch sound, and a shift off by one bit would
// still give weights that look random.
func TestBatchWeightMatchesBigRule(t *testing.T) {
	digest := sha256.Sum256([]byte("batch transcript"))
	for _, i := range []int{0, 1, 255, 256, 65536} {
		seed := binary.BigEndian.AppendUint32(append([]byte(nil), digest[:]...), uint32(i))
		h := prf.OracleGT(seed)
		want := new(big.Int).Rsh(h.Big(), 126)
		if want.Sign() == 0 {
			want.SetInt64(1)
		}
		if got := batchWeight(digest[:], i); got.Big().Cmp(want) != 0 {
			t.Errorf("i=%d: batchWeight = %v, want %v", i, &got, want)
		}
	}
}

// TestVerifyBatchBisection plants one corrupt proof among honest items and
// checks the search isolates exactly it with one evaluation beyond the
// block's own.
func TestVerifyBatchBisection(t *testing.T) {
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
		items[i] = &BatchItem{
			Pub:       prover.Pub,
			NumChunks: ef.NumChunks(),
			Challenge: ch,
			Proof:     proof,
		}
	}
	const bad = 5
	items[bad].Proof.YPrime = items[0].Proof.YPrime

	var stats BatchStats
	verdicts := VerifyBatchParallel(items, &stats, 0)
	for i, ok := range verdicts {
		if want := i != bad; ok != want {
			t.Errorf("item %d verdict %v, want %v", i, ok, want)
		}
	}
	// One cheater in 8: the full batch, then its index-weighted copy, which
	// names the cheater — versus 8 final exponentiations per item.
	if stats.FinalExps != 2 {
		t.Fatalf("isolation used %d final exps, want 2", stats.FinalExps)
	}
	if stats.MillerLoops == 0 {
		t.Fatal("Miller loops not counted")
	}

	// An all-honest batch costs exactly one final exponentiation.
	ch := items[bad].Challenge
	proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	items[bad].Proof = proof
	stats = BatchStats{}
	for i, ok := range VerifyBatchParallel(items, &stats, 0) {
		if !ok {
			t.Fatalf("honest item %d rejected", i)
		}
	}
	if stats.FinalExps != 1 {
		t.Fatalf("honest batch used %d final exps, want 1", stats.FinalExps)
	}
	// All items share one owner key (K = 1): one eps loop, one delta loop
	// and the shared sigma-term loop.
	if stats.MillerLoops != 3 {
		t.Fatalf("honest batch used %d Miller loops, want 3", stats.MillerLoops)
	}
}

// TestVerifyBatchKeyGroups runs batches whose items fall under K = 1, K = N
// and mixed owner keys, one member carrying an unmarshalled copy of another's
// key (equal by value, not by pointer): an honest batch costs 2K+1 Miller
// loops and one final exponentiation, and with a cheater planted in each key
// group in turn every verdict equals the item's own VerifyPrivate.
func TestVerifyBatchKeyGroups(t *testing.T) {
	provers := make([]*Prover, 3)
	for i := range provers {
		_, _, provers[i] = testSetup(t, 4, 600)
	}
	enc, err := provers[0].Pub.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := UnmarshalPublicKey(enc, true)
	if err != nil {
		t.Fatal(err)
	}
	const copyOf0 = -1 // prover 0's proof under the recovered key
	for _, c := range []struct {
		name   string
		owners []int
		k      int
	}{
		{"K=1", []int{0, 0, copyOf0, 0, 0}, 1},
		{"K=N", []int{0, 1, 2}, 3},
		{"mixed", []int{0, 1, copyOf0, 2, 1, 0}, 3},
	} {
		items := make([]*BatchItem, len(c.owners))
		firstOf := map[int]int{} // owner key -> its first item
		for i, o := range c.owners {
			pub := recovered
			if o == copyOf0 {
				o = 0
			} else {
				pub = provers[o].Pub
			}
			if _, seen := firstOf[o]; !seen {
				firstOf[o] = i
			}
			ch, err := NewChallenge(3, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := provers[o].ProvePrivate(ch, nil, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			items[i] = &BatchItem{Pub: pub, NumChunks: provers[o].File.NumChunks(), Challenge: ch, Proof: proof}
		}
		for _, workers := range []int{1, 2} {
			var stats BatchStats
			for i, ok := range VerifyBatchParallel(items, &stats, workers) {
				if !ok {
					t.Fatalf("%s workers=%d: honest item %d rejected", c.name, workers, i)
				}
			}
			if stats.MillerLoops != 2*c.k+1 || stats.FinalExps != 1 {
				t.Fatalf("%s workers=%d: honest batch used %d Miller loops and %d final exps, want %d and 1",
					c.name, workers, stats.MillerLoops, stats.FinalExps, 2*c.k+1)
			}
			for o, bad := range firstOf {
				honest := items[bad].Proof
				forged := *honest
				forged.YPrime = items[(bad+1)%len(items)].Proof.YPrime
				items[bad].Proof = &forged
				for i, ok := range VerifyBatchParallel(items, nil, workers) {
					it := items[i]
					if want := VerifyPrivate(it.Pub, it.NumChunks, it.Challenge, it.Proof); ok != want || want != (i != bad) {
						t.Errorf("%s workers=%d, cheater under key %d: item %d verdict %v, VerifyPrivate %v",
							c.name, workers, o, i, ok, want)
					}
				}
				items[bad].Proof = honest
			}
		}
	}
}

// TestVerifyBatchMatchesVerifyPrivate is the differential for the block-level
// sums: whatever a batch holds, every item's verdict is its own
// VerifyPrivate's and the bisection walks the same path at any worker count.
// The merged multi-scalar multiplications see points the providers chose, so
// the table is built from what a provider can arrange: repeated and opposite
// points, a repeated R, a bad item at every position, bad items under
// interleaved keys, and an item that fails before any group arithmetic.
func TestVerifyBatchMatchesVerifyPrivate(t *testing.T) {
	provers := make([]*Prover, 2)
	for i := range provers {
		_, _, provers[i] = testSetup(t, 4, 600)
	}
	// honest is a fresh challenge to owner o answered correctly, the proof's
	// mask drawn from rng.
	honest := func(o int, rng io.Reader) *BatchItem {
		t.Helper()
		ch, err := NewChallenge(3, rand.Reader)
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

	type batch struct {
		name  string
		items []*BatchItem
		bad   []int
	}
	var cases []batch

	dup := ok(0)
	cases = append(cases, batch{"the same proof in two slots", []*BatchItem{ok(0), dup, ok(1), dup}, nil})

	first, negated := ok(0), ok(0)
	forged := *negated.Proof
	forged.Sigma = new(bn256.G1).Neg(first.Proof.Sigma)
	negated.Proof = &forged
	cases = append(cases, batch{"sigma_j = -sigma_i", []*BatchItem{first, ok(0), negated}, []int{2}})

	mask := make([]byte, 256)
	rand.Read(mask)
	first, second := honest(0, bytes.NewReader(mask)), honest(0, bytes.NewReader(mask))
	if !first.Proof.R.Equal(second.Proof.R) {
		t.Fatal("the same mask gave two commitments; the repeated-R case is not exercised")
	}
	cases = append(cases, batch{"two items with the same R", []*BatchItem{first, ok(0), second}, nil})

	for pos := 0; pos < 5; pos++ {
		items := []*BatchItem{ok(0), ok(0), ok(0), ok(0), ok(0)}
		items[pos] = wrongChallenge(0)
		cases = append(cases, batch{fmt.Sprintf("wrong challenge at position %d of 5", pos), items, []int{pos}})
	}

	cases = append(cases, batch{"two keys interleaved, a cheater under each",
		[]*BatchItem{ok(0), ok(1), wrongChallenge(0), wrongChallenge(1), ok(0), ok(1)}, []int{2, 3}})

	unexpandable := ok(0)
	unexpandable.NumChunks = -1
	cases = append(cases, batch{"a challenge that cannot expand, in the middle",
		[]*BatchItem{ok(0), ok(1), unexpandable, ok(0), ok(1)}, []int{2}})

	for _, c := range cases {
		want := make([]bool, len(c.items))
		for i, it := range c.items {
			want[i] = VerifyPrivate(it.Pub, it.NumChunks, it.Challenge, it.Proof)
		}
		isBad := make([]bool, len(c.items))
		for _, i := range c.bad {
			isBad[i] = true
		}
		for i := range want {
			if want[i] == isBad[i] {
				t.Fatalf("%s: VerifyPrivate of item %d is %v; the case is not what it says", c.name, i, want[i])
			}
		}
		var serial BatchStats
		for _, workers := range []int{1, 2, 8} {
			var stats BatchStats
			for i, got := range VerifyBatchParallel(c.items, &stats, workers) {
				if got != want[i] {
					t.Errorf("%s workers=%d: item %d verdict %v, VerifyPrivate %v", c.name, workers, i, got, want[i])
				}
			}
			if workers == 1 {
				serial = stats
			} else if stats != serial {
				t.Errorf("%s workers=%d: stats %+v diverge from serial %+v", c.name, workers, stats, serial)
			}
		}
		if batchVerify(c.items) != (len(c.bad) == 0) {
			t.Errorf("%s: BatchVerify = %v", c.name, len(c.bad) != 0)
		}
	}
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
		ch, _ := NewChallenge(k, rand.Reader)
		proof, err := prover.Prove(ch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(prover.Pub, d, ch, proof) {
			detected++
		}
	}
	want := DetectionProbability(d, corrupt, k)
	got := float64(detected) / trials
	if math.Abs(got-want) > 0.3 {
		t.Fatalf("empirical detection %v too far from model %v", got, want)
	}
}

// TestBatchWeightsAreLoadBearing pins why the batch weights rho_i may not be
// dropped. A prover who has fixed R_1 and R_2 knows zeta_i = H'(R_i), so
// sigma_1 + D and sigma_2 - (zeta_1/zeta_2) D cancel in the unweighted
// product although both items fail on their own: VerifyPrivate rejects each,
// VerifyBatchParallel rejects both, and verifyTerms over the same terms with
// every rho forced to 1 accepts.
func TestBatchWeightsAreLoadBearing(t *testing.T) {
	items := make([]*BatchItem, 2)
	for i := range items {
		_, ef, prover := testSetup(t, 4, 600+i*100)
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
	delta := bn256.HashToG1([]byte("delta"))
	zeta1 := prf.OracleGT(items[0].Proof.R.Marshal())
	zeta2 := prf.OracleGT(items[1].Proof.R.Marshal())
	items[0].Proof.Sigma = new(bn256.G1).Add(items[0].Proof.Sigma, delta)
	var k bn256.Scalar
	k.Neg(k.Mul(&zeta1, k.Inv(&zeta2)))
	shift := new(bn256.G1).ScalarMult(delta, k.Big())
	items[1].Proof.Sigma = new(bn256.G1).Add(items[1].Proof.Sigma, shift)

	for i, it := range items {
		if VerifyPrivate(it.Pub, it.NumChunks, it.Challenge, it.Proof) {
			t.Fatalf("perturbed item %d verifies on its own", i)
		}
	}
	for i, ok := range VerifyBatchParallel(items, nil, 0) {
		if ok {
			t.Errorf("VerifyBatchParallel accepts perturbed item %d", i)
		}
	}
	// Every scalar of a term carries exactly one factor rho; divide it out.
	terms := prepareBatch(items, 1)
	for _, term := range terms {
		var inv bn256.Scalar
		inv.Inv(&term.rho)
		term.zr.Mul(&term.zr, &inv)
		term.zrR.Mul(&term.zrR, &inv)
		for j := range term.tagW {
			term.tagW[j].Mul(&term.tagW[j], &inv)
		}
		term.rhoY.Mul(&term.rhoY, &inv)
		term.rho.SetUint64(1)
	}
	if !verifyTerms(terms, nil, 1) {
		t.Fatal("the unweighted batch rejects the pair: the test plants no cancellation")
	}
}
