package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"

	"repro/internal/bn256"
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
// loops whatever N is. Each of those sums is one multi-scalar multiplication
// over the batch -- no item's weighted terms are computed on their own (see
// verifyTerms) -- and the R commitments are weighted in one GT
// multi-exponentiation. A batch verifies only if every relation holds; on
// failure the caller falls back to bisection (VerifyBatch) to locate the
// offender.
//
// The regrouping is bilinearity alone: the GT element compared with one is
// the same product of the same weighted per-item equations whatever the
// grouping, so the argument below and every verdict are those of the
// ungrouped 2N+1-loop product.
//
// The weights are what make the batch sound. The per-item zeta_i = H'(R_i)
// do not: a prover who has fixed R_1 and R_2 knows zeta_1 and zeta_2, so
// answering sigma_1 + D and sigma_2 - (zeta_1/zeta_2) D, for any D in G1,
// fails both items' own equations yet leaves their unweighted product
// unchanged (TestBatchWeightsAreLoadBearing). Each item is therefore raised
// to an independent weight rho_i derived from the whole batch transcript,
// after every response is fixed: the small-exponent batch test of Bellare,
// Garay and Rabin (EUROCRYPT 1998), under which a batch holding any false
// equation passes with probability about 2^-128 over 128-bit weights. The
// weights are not optional; dropping them makes the batch forgeable.
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
// of forcing N per-item ones. What depends on an item alone — the expanded
// challenge, its tags H(name||i), its weight and its scalars — is prepared
// once and shared by every bisection level; the group arithmetic is per
// sub-batch, so re-verifying a half re-sums that half (about twice the
// summing work of the failing block overall, paid before a slash) and runs
// its Miller loops and one final exponentiation. stats may be nil.
// VerifyBatch uses GOMAXPROCS workers; VerifyBatchParallel exposes the worker
// count.
func VerifyBatch(items []*BatchItem, stats *BatchStats) []bool {
	return VerifyBatchParallel(items, stats, 0)
}

// VerifyBatchParallel is VerifyBatch with a bounded worker count (<= 0
// selects GOMAXPROCS): the per-item preparation (challenge expansion and tag
// hashing) fans out across items, every (sub-)batch verification fans out its
// independent sums and evaluates its Miller loops through bn256.MillerBatch.
// Verdicts, stats counters and the bisection path are identical at any worker
// count.
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
// H'(digest || i) >> 126, or 1 where that is 0, with the index encoded as 4
// big-endian bytes, so positions that differ only above the low byte (e.g. 0
// and 256) still get independent weights. The digest commits to the whole
// batch transcript (every item's full response, see batchTranscript), never
// a single prover's contribution alone.
func batchWeight(digest []byte, i int) bn256.Scalar {
	seed := make([]byte, 0, len(digest)+4)
	seed = binary.BigEndian.AppendUint32(append(seed, digest...), uint32(i))
	h := prf.OracleGT(seed).Bytes()
	var w [16]byte // h >> 126, h below 2^254 in 32 big-endian bytes
	for j := range w {
		w[j] = h[j]<<2 | h[j+1]>>6
	}
	var rho bn256.Scalar
	_ = rho.SetBytes(w[:]) // below 2^128 < n
	if rho.IsZero() {
		rho.SetUint64(1)
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
		y := it.Proof.YPrime.Bytes()
		h.Write(y[:])
		h.Write(it.Proof.Psi.Marshal())
		h.Write(it.Proof.R.Marshal())
	}
	return h.Sum(nil)
}

// batchTerm is what one item contributes to any sub-batch it is verified in:
// the group elements of its equation as they arrived, and the scalar each is
// weighted by, from the expanded challenge, zeta = H'(R) and the weight rho
// of the whole-batch transcript. Nothing here is a group operation's result:
// the weighted sums are verifyTerms', over whatever subset it is handed.
type batchTerm struct {
	ok    bool          // challenge expanded successfully
	pub   *PublicKey    // eps and delta, the G2 points this item's sums pair against
	key   string        // their encoding: terms group by key value, not pointer
	proof *PrivateProof // sigma, psi and R
	tags  []*bn256.G1   // H(name||i) of the challenged chunks

	zr   bn256.Scalar   // zeta*rho: sigma's against g2; negated, psi's against delta
	zrR  bn256.Scalar   // zeta*rho*r: psi's against eps
	tagW []bn256.Scalar // -zeta*rho*c_j: the tags' against eps
	rhoY bn256.Scalar   // rho*y': g1's against eps, negated
	rho  bn256.Scalar   // R's
}

// prepareBatch derives the whole-batch weights and, per item, everything that
// does not depend on which sub-batch the item is verified in: the expanded
// challenge, the tags it names and every scalar of its weighted equation. It
// does no group arithmetic. The independent per-item preparations fan out
// across at most workers goroutines and land in index-keyed slots, so the
// result is identical at any worker count. An item whose challenge fails to
// expand is marked !ok and fails its (sub-)batch without pairing work.
func prepareBatch(items []*BatchItem, workers int) []*batchTerm {
	transcript := batchTranscript(items)
	terms := make([]*batchTerm, len(items))
	// The grouping key is the value of (eps, delta); one owner's items
	// usually share the *PublicKey too, so it is encoded once per pointer.
	keys := make(map[*PublicKey]string)
	for _, it := range items {
		if _, seen := keys[it.Pub]; !seen {
			keys[it.Pub] = string(append(it.Pub.Epsilon.Marshal(), it.Pub.Delta.Marshal()...))
		}
	}
	// When the batch is smaller than the worker budget (a one-engagement
	// block settling a single proof, say), the across-items fan-out alone
	// would leave cores idle, so the surplus goes to each item's k tag
	// hashes, which dominate preparation.
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

		term.ok = true
		term.pub = it.Pub
		term.key = keys[it.Pub]
		term.proof = it.Proof
		term.tags = make([]*bn256.G1, len(indices))
		parallel.For(itemWorkers, len(indices), func(j int) {
			term.tags[j] = it.Pub.blockTag(indices[j])
		})
		term.zr.Mul(&zeta, &rho)
		term.zrR.Mul(&term.zr, &r)
		var w bn256.Scalar
		w.Neg(&term.zr)
		for j := range coeffs { // the expansion is the item's own: scaled in place
			coeffs[j].Mul(&coeffs[j], &w)
		}
		term.tagW = coeffs
		term.rhoY.Mul(&rho, &it.Proof.YPrime)
		term.rho = rho
	})
	return terms
}

// verifyTerms checks one (sub-)batch of prepared terms, and all of its group
// arithmetic happens here, over exactly the terms it is handed — bisection
// calls it on halves, so there is one path and no cache of per-item
// products. For the items under each distinct owner key, keys in order of
// first appearance, it forms
//
//	against eps:   sum_i (zeta_i rho_i r_i) psi_i - sum_ij (zeta_i rho_i c_ij) H(name_i||j) - (sum_i rho_i y'_i) g1
//	against delta: -sum_i (zeta_i rho_i) psi_i
//
// and over all items sum_i (zeta_i rho_i) sigma_i against g2 and
// prod_i R_i^{rho_i}: one multi-scalar multiplication per pairing slot (the
// eps one over the group's psi and tags together, a few hundred points for a
// block of small proofs, which is where the bucket method is at its best) and
// one GT multi-exponentiation sharing its squarings. The sums are independent
// and fan out across workers, as do the 2K+1 Miller loops (bn256.MillerBatch);
// each lands in its own slot and the product takes one final exponentiation,
// so the verdict is identical at any worker count.
func verifyTerms(terms []*batchTerm, stats *BatchStats, workers int) bool {
	// A term whose challenge failed to expand fails the whole (sub-)batch:
	// detect it before spending any group arithmetic, at every bisection level.
	for _, term := range terms {
		if !term.ok {
			return false
		}
	}

	// groups[j] holds the items of the key first seen at slot[key] = j; its
	// eps and delta sums go to g1s[2j], g1s[2j+1] against g2s[2j] = eps,
	// g2s[2j+1] = delta, and the sigma sum comes last against g2.
	slot := make(map[string]int)
	var groups []*keyGroup
	var g2s []*bn256.G2
	for _, term := range terms {
		j, seen := slot[term.key]
		if !seen {
			j = len(groups)
			slot[term.key] = j
			groups = append(groups, &keyGroup{})
			g2s = append(g2s, term.pub.Epsilon, term.pub.Delta)
		}
		groups[j].terms = append(groups[j].terms, term)
		groups[j].epsPoints += 1 + len(term.tags)
	}
	g2s = append(g2s, bn256.GenG2())
	g1s := make([]*bn256.G1, len(g2s))

	var rAgg *bn256.GT
	parallel.For(workers, 1+len(g1s), func(task int) {
		// The R product goes first: it and the first eps sum are the long ones.
		switch j := task - 1; {
		case j < 0:
			rs := make([]*bn256.GT, len(terms))
			rhos := make([]bn256.Scalar, len(terms))
			for i, term := range terms {
				rs[i], rhos[i] = term.proof.R, term.rho
			}
			rAgg = new(bn256.GT).MultiScalarMult(rs, rhos)
		case j == len(g1s)-1:
			g1s[j] = zrSum(terms, func(p *PrivateProof) *bn256.G1 { return p.Sigma })
		case j%2 == 0:
			g1s[j] = groups[j/2].epsSum(workers)
		default:
			sum := zrSum(groups[j/2].terms, func(p *PrivateProof) *bn256.G1 { return p.Psi })
			g1s[j] = sum.Neg(sum)
		}
	})
	if stats != nil {
		stats.MillerLoops += len(g1s)
		stats.FinalExps++
	}
	res := bn256.FinalExponentiate(bn256.MillerBatch(g1s, g2s, workers))
	res.Add(res, rAgg)
	return res.IsOne()
}

// keyGroup is the terms of one (sub-)batch under one owner key.
type keyGroup struct {
	terms     []*batchTerm
	epsPoints int // points of the eps sum: a psi and the tags per item
}

// epsSum returns what the group pairs against eps (see verifyTerms): one
// multi-scalar multiplication over every item's psi and tags, its slices
// sized once, and g1 to the negated sum of the rho*y' by the fixed-base table.
func (g *keyGroup) epsSum(workers int) *bn256.G1 {
	points := make([]*bn256.G1, 0, g.epsPoints)
	scalars := make([]bn256.Scalar, 0, g.epsPoints)
	var y bn256.Scalar
	for _, term := range g.terms {
		points = append(append(points, term.proof.Psi), term.tags...)
		scalars = append(append(scalars, term.zrR), term.tagW...)
		y.Add(&y, &term.rhoY)
	}
	sum, _ := new(bn256.G1).MultiScalarMultCtx(context.TODO(), points, scalars, workers) // never done: no error
	return sum.Add(sum, new(bn256.G1).ScalarBaseMult(y.Neg(&y).Big()))
}

// zrSum returns sum_i (zeta_i rho_i) P_i over terms, P_i the point of the
// item's proof that point selects (sigma, or psi).
func zrSum(terms []*batchTerm, point func(*PrivateProof) *bn256.G1) *bn256.G1 {
	points := make([]*bn256.G1, len(terms))
	scalars := make([]bn256.Scalar, len(terms))
	for i, term := range terms {
		points[i], scalars[i] = point(term.proof), term.zr
	}
	return new(bn256.G1).MultiScalarMult(points, scalars)
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
