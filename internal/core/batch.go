package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/big"

	"repro/internal/bn256"
	"repro/internal/ff"
	"repro/internal/parallel"
	"repro/internal/prf"
)

// BatchItem pairs one contract's verification inputs for batch auditing
// (Section VII-D: "our auditing protocol natively supports the batch
// auditing").
type BatchItem struct {
	Pub       *PublicKey
	NumChunks int
	Challenge *Challenge
	Proof     *PrivateProof
}

// BatchVerify checks many private proofs from independent contracts while
// sharing a single final exponentiation across all of them. Each item's
// equation is first rewritten by bilinearity so that no G2 point is computed
// for it,
//
//	e(psi^{-zeta}, delta * eps^{-r}) = e(psi^{-zeta}, delta) * e(psi^{r*zeta}, eps),
//
// which leaves every factor paired against one of three fixed G2 points: the
// item's eps (the g1^{-y'}, chi and psi^r terms), its delta (the psi term) and
// the shared generator g2 (the sigma term). Factors sharing a G2 point are
// summed in G1 before they are paired, so a batch of N items under K distinct
// owner keys (eps, delta) -- compared by value, so a recovered or unmarshalled
// key groups with the original -- costs 2K+1 Miller loops and one final
// exponentiation, versus N*(3 Miller loops + 1 final exponentiation) verified
// one by one; K = N is the worst case, K = 1 (one owner's files) costs three
// loops whatever N is. A batch verifies only if every relation holds; on
// failure the caller falls back to bisection (VerifyBatch) to locate the
// offender.
//
// The regrouping is bilinearity alone: the GT element compared with one is
// the same product of the same weighted per-item equations whatever the
// grouping, so the argument below and every verdict are those of the
// ungrouped 2N+1-loop product.
//
// Note the usual batching caveat does not apply here: each item's equation
// is checked against its own independent zeta = H'(R_i), and an adversary
// committing to R_i fixes zeta_i before choosing the rest of the response,
// so cross-item cancellation would require breaking the random oracle.
// For defense in depth the items are additionally weighted by independent
// verifier-chosen 128-bit scalars derived from the whole batch transcript
// (128 bits suffices for the standard small-exponent batching argument and
// keeps the per-item weighting cheaper than the final exponentiation it
// amortizes away).
func BatchVerify(items []*BatchItem) bool {
	if len(items) == 0 {
		return true
	}
	return verifyTerms(prepareBatch(items, 0), nil, 0)
}

// BatchStats counts the pairing workload of batched verification, the
// ProveStats analogue for the settlement side. Each (sub-)batch verification
// performs one final exponentiation and 2K+1 Miller loops for items under K
// distinct owner keys (two per key plus the shared sigma loop), so the
// counters make the amortization claim (and the bisection overhead on
// dispute) directly measurable.
type BatchStats struct {
	FinalExps   int // final exponentiations performed
	MillerLoops int // Miller loops performed
}

// VerifyBatch returns a per-item verdict for the whole batch. An all-honest
// batch costs a single shared final exponentiation; on failure the batch is
// bisected recursively until the offending item(s) are isolated, so one
// cheater among N honest items costs O(log N) extra verifications instead
// of forcing N per-item ones. Each item's expensive inputs — the expanded
// challenge, the chi multi-scalar multiplication, and its weight — are
// prepared once and shared by every bisection level, so re-verifying a
// sub-batch costs only its Miller loops and one final exponentiation.
// stats may be nil. VerifyBatch uses GOMAXPROCS workers; VerifyBatchParallel
// exposes the worker count.
func VerifyBatch(items []*BatchItem, stats *BatchStats) []bool {
	return VerifyBatchParallel(items, stats, 0)
}

// VerifyBatchParallel is VerifyBatch with a bounded worker count (<= 0
// selects GOMAXPROCS): the per-item term preparation (challenge expansion
// and the chi multi-scalar multiplication) fans out across items, and every
// (sub-)batch verification evaluates its Miller loops through
// bn256.MillerBatch. Verdicts, stats counters and the bisection path are
// identical at any worker count.
func VerifyBatchParallel(items []*BatchItem, stats *BatchStats, workers int) []bool {
	verdicts := make([]bool, len(items))
	if len(items) == 0 {
		return verdicts
	}
	bisect(prepareBatch(items, workers), verdicts, stats, false, workers)
	return verdicts
}

// bisect marks the verdicts of terms and reports whether the whole
// sub-batch verified: all true if it does, otherwise recursing into halves
// (a single item's failure is its own verdict). knownBad skips the
// sub-batch's own verification when the caller has already proved it must
// fail — a failed parent whose first half passes pins the failure in the
// second half, so re-verifying that half as a whole would waste a final
// exponentiation at every such level.
func bisect(terms []*batchTerm, verdicts []bool, stats *BatchStats, knownBad bool, workers int) bool {
	if !knownBad && verifyTerms(terms, stats, workers) {
		for i := range verdicts {
			verdicts[i] = true
		}
		return true
	}
	if len(terms) == 1 {
		verdicts[0] = false
		return false
	}
	mid := len(terms) / 2
	leftOK := bisect(terms[:mid], verdicts[:mid], stats, false, workers)
	bisect(terms[mid:], verdicts[mid:], stats, leftOK, workers)
	return false
}

// batchWeight derives the ~128-bit weight rho_i for batch position i:
// H'(digest || i) with the index encoded as 4 big-endian bytes, so
// positions that differ only above the low byte (e.g. 0 and 256) still get
// independent weights. The digest commits to the whole batch transcript
// (every item's full response, see batchTranscript), never a single
// prover's contribution alone.
func batchWeight(digest []byte, i int) *big.Int {
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], uint32(i))
	seed := make([]byte, 0, len(digest)+4)
	seed = append(seed, digest...)
	seed = append(seed, idx[:]...)
	rho := new(big.Int).Rsh(prf.OracleGT(seed), 126)
	if rho.Sign() == 0 {
		rho.SetInt64(1)
	}
	return rho
}

// batchTranscript hashes every item's full response (sigma, y', psi, R)
// into one 32-byte digest. Deriving each rho_i from this digest means no
// prover can predict any weight before the entire batch is committed:
// changing any single proof re-randomizes every weight in the batch. The
// transcript is hashed once — not once per weight — so weight derivation
// stays O(N) in the batch size.
func batchTranscript(items []*BatchItem) []byte {
	h := sha256.New()
	for _, it := range items {
		h.Write(it.Proof.Sigma.Marshal())
		h.Write(ff.Bytes(it.Proof.YPrime))
		h.Write(it.Proof.Psi.Marshal())
		h.Write(it.Proof.R.Marshal())
	}
	return h.Sum(nil)
}

// batchTerm is one item's fully prepared verification inputs: the weighted
// G1 and GT terms that enter the pairing equation, built from the expanded
// challenge, the chi multi-scalar multiplication and the weight rho_i from the
// whole-batch transcript. Preparing these once lets bisection re-verify any
// sub-batch at the cost of a few G1 additions per item, its Miller loops and
// one final exponentiation, without redoing the expensive per-item setup.
type batchTerm struct {
	ok        bool       // challenge expanded successfully
	pub       *PublicKey // eps and delta, the G2 points the next two pair against
	key       string     // their encoding: terms group by key value, not pointer
	epsTerm   *bn256.G1  // g1^{-rho*y'} * chi^{-zeta*rho} * psi^{r*zeta*rho}
	deltaTerm *bn256.G1  // psi^{-zeta*rho}
	sigmaW    *bn256.G1  // sigma^{zeta*rho}: pairs against the shared g2
	rW        *bn256.GT  // R^rho
}

// prepareBatch derives the whole-batch weights and precomputes every item's
// pairing terms, fanning the independent per-item preparations (challenge
// expansion, the chi multi-scalar multiplication, the weighted terms) across
// at most workers goroutines. Terms land in index-keyed slots, so the result
// is identical at any worker count. An item whose challenge fails to expand
// is marked !ok and fails its (sub-)batch without pairing work.
func prepareBatch(items []*BatchItem, workers int) []*batchTerm {
	transcript := batchTranscript(items)
	terms := make([]*batchTerm, len(items))
	// When the batch is smaller than the worker budget (a one-engagement
	// block settling a single proof, say), the across-items fan-out alone
	// would leave cores idle, so the surplus goes to each item's chi — the
	// k-point tag hashing and MSM that dominate preparation.
	itemWorkers := 1
	if n := len(items); n > 0 {
		if budget := parallel.Workers(workers, 0); budget > n {
			itemWorkers = (budget + n - 1) / n
		}
	}
	parallel.For(workers, len(items), func(bi int) {
		it := items[bi]
		term := &batchTerm{}
		terms[bi] = term
		indices, coeffs, r, err := it.Challenge.Expand(it.NumChunks)
		if err != nil {
			return
		}
		zeta := prf.OracleGT(it.Proof.R.Marshal())
		rho := batchWeight(transcript, bi)
		zr := ff.Mul(zeta, rho)

		// Everything that pairs against this item's eps, summed first.
		psiW := new(bn256.G1).ScalarMult(it.Proof.Psi, zr)
		epsTerm := new(bn256.G1).ScalarBaseMult(ff.Neg(ff.Mul(rho, it.Proof.YPrime)))
		x := chi(it.Pub, indices, coeffs, itemWorkers)
		epsTerm.Add(epsTerm, new(bn256.G1).Neg(x.ScalarMult(x, zr)))
		epsTerm.Add(epsTerm, new(bn256.G1).ScalarMult(psiW, r))

		term.ok = true
		term.pub = it.Pub
		term.key = string(append(it.Pub.Epsilon.Marshal(), it.Pub.Delta.Marshal()...))
		term.epsTerm = epsTerm
		term.deltaTerm = psiW.Neg(psiW)
		term.sigmaW = new(bn256.G1).ScalarMult(it.Proof.Sigma, zr)
		term.rW = new(bn256.GT).ScalarMult(it.Proof.R, rho)
	})
	return terms
}

// verifyTerms checks one (sub-)batch of prepared terms: the eps and delta
// terms of the items under each distinct owner key are summed in G1 and paired
// once per key, all sigma terms once against g2, and the product takes one
// final exponentiation. The 2K+1 Miller loops evaluate across workers via
// bn256.MillerBatch; everything else (the G1/GT accumulations and the final
// exponentiation) is serial and order-fixed — keys in order of first
// appearance — so the verdict is identical at any worker count.
func verifyTerms(terms []*batchTerm, stats *BatchStats, workers int) bool {
	// A term whose challenge failed to expand fails the whole (sub-)batch:
	// detect it before spending any Miller loops, at every bisection level.
	for _, term := range terms {
		if !term.ok {
			return false
		}
	}
	rAgg := new(bn256.GT).SetOne()
	sigmaAgg := new(bn256.G1).SetInfinity() // sum of weighted sigma terms

	// g1s[j], g1s[j+1] hold the eps and delta sums of the key first seen at
	// slot[key] = j, against g2s[j] = eps, g2s[j+1] = delta.
	slot := make(map[string]int)
	var g1s []*bn256.G1
	var g2s []*bn256.G2
	for _, term := range terms {
		sigmaAgg.Add(sigmaAgg, term.sigmaW)
		rAgg.Add(rAgg, term.rW)
		j, seen := slot[term.key]
		if !seen {
			j = len(g1s)
			slot[term.key] = j
			g1s = append(g1s, new(bn256.G1).SetInfinity(), new(bn256.G1).SetInfinity())
			g2s = append(g2s, term.pub.Epsilon, term.pub.Delta)
		}
		g1s[j].Add(g1s[j], term.epsTerm)
		g1s[j+1].Add(g1s[j+1], term.deltaTerm)
	}
	g1s = append(g1s, sigmaAgg)
	g2s = append(g2s, bn256.GenG2())
	if stats != nil {
		stats.MillerLoops += len(g1s)
		stats.FinalExps++
	}
	res := bn256.FinalExponentiate(bn256.MillerBatch(g1s, g2s, workers))
	res.Add(res, rAgg)
	return res.IsOne()
}

// DetectionProbability returns the probability that an audit challenging k
// of d chunks touches at least one of the c corrupted chunks:
// 1 - C(d-c,k)/C(d,k), computed in log space for stability. This is the
// storage-confidence model behind the paper's "k=300 gives 95% assurance at
// 1% corruption" (Section VI-A) and the x axis of Fig. 9.
func DetectionProbability(d, c, k int) float64 {
	if c <= 0 || k <= 0 || d <= 0 {
		return 0
	}
	if k+c > d {
		return 1
	}
	// log C(d-c,k) - log C(d,k) = sum_{i=0}^{k-1} log((d-c-i)/(d-i))
	logMiss := 0.0
	for i := 0; i < k; i++ {
		logMiss += math.Log(float64(d-c-i)) - math.Log(float64(d-i))
	}
	return 1 - math.Exp(logMiss)
}

// ChunksForConfidence returns the smallest k whose detection probability at
// corruption ratio rho reaches conf, using the paper's i.i.d. approximation
// k = ln(1-conf)/ln(1-rho). Fig. 9's x axis (91%..99% at rho = 1%) maps to
// k = 240..460 through this function.
func ChunksForConfidence(conf, rho float64) int {
	if conf <= 0 || conf >= 1 || rho <= 0 || rho >= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(1-conf) / math.Log(1-rho)))
}
