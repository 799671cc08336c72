package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math/big"

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

// BatchStats counts the pairing workload of batched verification, the
// ProveStats analogue for the settlement side. Each (sub-)batch verification
// performs one final exponentiation and 2K+1 Miller loops for items under K
// distinct owner keys (two per key plus the shared sigma loop), so the
// counters make the amortization claim (and the isolation overhead on
// dispute) directly measurable.
type BatchStats struct {
	FinalExps   int // final exponentiations performed
	MillerLoops int // Miller loops performed
	Prepares    int // per-item steps run at settlement: no bound item was attached
}

// VerifyBatchParallel returns a per-item verdict for the whole batch. An
// all-honest batch costs a single shared final exponentiation; on failure the
// offenders are isolated (VerifyPrepared), so one cheater among N honest
// items costs one extra evaluation instead of forcing N per-item ones. What
// depends on an item alone — the decoded proof, the expanded challenge, zeta
// and the tags H(name||i) — is prepared once per item (PreparedProof); its
// weight rho depends on the whole transcript and is derived per slot, once,
// and the scalars it scales are shared by every sub-batch. The group
// arithmetic is per evaluation, so each one re-sums its terms and runs their
// Miller loops and one final exponentiation. stats may be nil.
//
// workers bounds the goroutines (<= 0 selects GOMAXPROCS): the per-item
// preparation (challenge expansion and tag hashing) fans out across items,
// every (sub-)batch verification fans out its independent sums and evaluates
// its Miller loops through bn256.MillerBatch. Verdicts, stats counters and
// the isolation path are identical at any worker count.
func VerifyBatchParallel(items []*BatchItem, stats *BatchStats, workers int) []bool {
	return VerifyPrepared(prepareItems(items, workers), stats, workers)
}

// VerifyPrepared is VerifyBatchParallel over proofs whose per-item step is
// done (PrepareProof), on whatever goroutine received them. What is left is
// the block step: each slot's weight from the transcript and its scaled
// scalars, then the sums, Miller loops and final exponentiation, isolating
// the offenders on failure. An item whose challenge did not expand fails
// before any evaluation. Verdicts and stats are those of VerifyBatchParallel
// over the same proofs, and no PreparedProof is written to.
//
// The proofs of a block, from independent contracts, share a single final
// exponentiation. Each item's equation is first rewritten by bilinearity so
// that no G2 point is computed for it,
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
// evalTerms) -- and the R commitments are weighted in one GT
// multi-exponentiation. A batch verifies only if every relation holds; on
// failure the search below locates the offenders.
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
func VerifyPrepared(preps []*PreparedProof, stats *BatchStats, workers int) []bool {
	s := search{verdicts: make([]bool, len(preps)), stats: stats, workers: workers}
	var live []*batchTerm
	for _, term := range weighBatch(preps) {
		if term.ok {
			live = append(live, term)
		}
	}
	if len(live) == 0 {
		return s.verdicts
	}
	if v := evalTerms(live, stats, workers); v.IsOne() {
		s.mark(live, true)
	} else {
		s.isolate(live, v, nil)
	}
	return s.verdicts
}

// search marks the verdicts of a failed block by index-weighted isolation,
// the exponentiation method of Law and Matt ("Finding invalid signatures in
// pairing-based batches", IMA Cryptography and Coding 2007). A sub-batch S
// evaluates to V(S) = prod_i E_i^{rho_i}, E_i slot i's equation value, one if
// every item holds. A failed S is evaluated once more with each weight
// scaled by its slot's position in the block, V'(S) = prod_i E_i^{(i+1)rho_i}:
// if S holds one bad slot j, V' = V^{j+1}, which names j. Otherwise S splits
// in two, and only the left half is evaluated: V and V' factor over the
// split, so the right half's pair is the parent's divided by the left's.
//
// Soundness: every E_i is in GT, of prime order n — R passed the subgroup
// check when the proof was decoded, and pairings land in GT. So V' = V^{j+1}
// means sum_{i in S} (i-j) rho_i e_i = 0 mod n, e_i the discrete log of E_i.
// If S holds a bad slot other than j this is a non-trivial relation in the
// small exponents rho_i, which the transcript fixed after every response; it
// holds with probability at most 2^-128 per j, the batch check's own bound
// (Bellare, Garay and Rabin, EUROCRYPT 1998). For |S| = 2 it never holds.
type search struct {
	verdicts []bool
	stats    *BatchStats
	workers  int
}

// mark sets the verdict of every slot of terms.
func (s *search) mark(terms []*batchTerm, ok bool) {
	for _, term := range terms {
		s.verdicts[term.slot] = ok
	}
}

// isolate marks the verdicts of terms, whose value v is not one, and returns
// their index-weighted value V', which vw holds already unless it is nil.
func (s *search) isolate(terms []*batchTerm, v, vw *bn256.GT) *bn256.GT {
	if len(terms) == 1 {
		s.verdicts[terms[0].slot] = false
		if vw == nil {
			vw = new(bn256.GT).ScalarMult(v, big.NewInt(int64(terms[0].slot+1)))
		}
		return vw
	}
	if vw == nil {
		vw = evalTerms(indexWeighted(terms), s.stats, s.workers)
	}
	if j := lone(terms, v, vw); j >= 0 {
		s.mark(terms, true)
		s.verdicts[j] = false
		return vw
	}
	if len(terms) == 2 { // both are bad: one alone would be named
		s.mark(terms, false)
		return vw
	}
	left, right := terms[:len(terms)/2], terms[len(terms)/2:]
	vl, vwl := evalTerms(left, s.stats, s.workers), new(bn256.GT).SetOne()
	if vl.IsOne() {
		s.mark(left, true)
	} else {
		vwl = s.isolate(left, vl, nil)
	}
	if vr := new(bn256.GT).Add(v, new(bn256.GT).Neg(vl)); vr.IsOne() {
		s.mark(right, true)
	} else {
		s.isolate(right, vr, new(bn256.GT).Add(vw, new(bn256.GT).Neg(vwl)))
	}
	return vw
}

// lone returns the slot j of terms with vw = v^{j+1}, or -1 if there is none.
// v has order n, so at most one slot matches.
func lone(terms []*batchTerm, v, vw *bn256.GT) int {
	at := terms[0].slot
	pow := new(bn256.GT).ScalarMult(v, big.NewInt(int64(at+1))) // v^{at+1}
	for _, term := range terms {
		for ; at < term.slot; at++ {
			pow.Add(pow, v)
		}
		if pow.Equal(vw) {
			return term.slot
		}
	}
	return -1
}

// indexWeighted returns new terms for terms, each weight rho_i scaled by
// its slot's position i+1.
func indexWeighted(terms []*batchTerm) []*batchTerm {
	scaled := make([]*batchTerm, len(terms))
	for k, term := range terms {
		var w bn256.Scalar
		w.SetUint64(uint64(term.slot + 1))
		scaled[k] = term.PreparedProof.weigh(term.slot, *w.Mul(&w, &term.rho))
	}
	return scaled
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
// stays O(N) in the batch size; each item's encoding is its per-item step's.
func batchTranscript(preps []*PreparedProof) []byte {
	h := sha256.New()
	for _, p := range preps {
		h.Write(p.enc)
	}
	return h.Sum(nil)
}

// PreparedProof is the per-item step of batch verification: everything
// checking one proof needs that does not depend on the block it settles in.
// It holds the decoded proof (R's subgroup check is done), the expanded
// challenge, zeta = H'(R), the proof's share of the batch transcript, the
// owner key it groups under, and the tags H(name||i_j) of the challenged
// chunks with their coefficients c_j — or, where collapseTags says so, the
// one point chi = sum_j c_j H(name||i_j) with coefficient 1. It holds no
// weight: rho needs the whole block, so the block step derives it when the
// block is known (VerifyPrepared). A PreparedProof is only read once made,
// so one may fill several slots of a batch and every sub-batch.
type PreparedProof struct {
	pub       *PublicKey
	numChunks int
	challenge Challenge
	raw       []byte // the bytes PrepareProof decoded; nil for a decoded item

	ok     bool           // the challenge expanded; if not, the item fails every batch it is in
	key    string         // the encoding of eps and delta: items group by key value, not pointer
	proof  *PrivateProof  // sigma, psi and R
	enc    []byte         // sigma, y', psi and R as batchTranscript hashes them
	zeta   bn256.Scalar   // H'(R)
	r      bn256.Scalar   // the challenge's evaluation point
	tags   []*bn256.G1    // what pairs against eps for the chunks: the k tags, or chi
	coeffs []bn256.Scalar // their coefficients: the c_j, or 1
}

// PrepareProof runs the per-item step over a proof as it arrives, against
// the owner's key, the file's d chunks and the challenge it answers. It
// decodes raw first and fails with exactly the error UnmarshalPrivateProof
// gives; a challenge that does not expand is no error, the item fails its
// batch as it would unprepared. The tags are hashed on the calling goroutine.
// The result records what it was made from (Matches).
func PrepareProof(pub *PublicKey, d int, ch *Challenge, raw []byte) (*PreparedProof, error) {
	proof, err := UnmarshalPrivateProof(raw)
	if err != nil {
		return nil, err
	}
	p := prepareItem(&BatchItem{Pub: pub, NumChunks: d, Challenge: ch, Proof: proof}, keyID(pub), 1)
	p.raw = bytes.Clone(raw)
	return p, nil
}

// Matches reports whether PrepareProof made p from exactly these inputs —
// the same key, chunk count and challenge value and the same bytes. A
// settlement holding p uses it only then, so a prepared item can save a
// verdict its work but never change it.
func (p *PreparedProof) Matches(pub *PublicKey, d int, ch *Challenge, raw []byte) bool {
	return p.raw != nil && p.pub == pub && p.numChunks == d && ch != nil && p.challenge == *ch && bytes.Equal(p.raw, raw)
}

// keyID encodes the owner key an item's sums pair against.
func keyID(pub *PublicKey) string {
	return string(append(pub.Epsilon.Marshal(), pub.Delta.Marshal()...))
}

// prepareItem is the per-item step over a decoded item, key its keyID. The
// k tag hashes, which dominate it, fan out across at most workers goroutines
// and land in index-keyed slots, so the result is the same at any count.
func prepareItem(it *BatchItem, key string, workers int) *PreparedProof {
	p := &PreparedProof{pub: it.Pub, numChunks: it.NumChunks, challenge: *it.Challenge, key: key, proof: it.Proof}
	rBytes := it.Proof.R.Marshal()
	y := it.Proof.YPrime.Bytes()
	p.enc = append(append(append(it.Proof.Sigma.Marshal(), y[:]...), it.Proof.Psi.Marshal()...), rBytes...)
	indices, coeffs, r, err := it.Challenge.Expand(it.NumChunks)
	if err != nil {
		return p
	}
	p.ok = true
	p.zeta = prf.OracleGT(rBytes)
	p.r = r
	tags := make([]*bn256.G1, len(indices))
	parallel.For(workers, len(indices), func(j int) {
		tags[j] = it.Pub.blockTag(indices[j])
	})
	if !collapseTags(len(tags)) {
		p.tags, p.coeffs = tags, coeffs
		return p
	}
	chi, _ := new(bn256.G1).MultiScalarMultCtx(context.TODO(), tags, coeffs, workers) // never done: no error
	p.tags = []*bn256.G1{chi}
	p.coeffs = make([]bn256.Scalar, 1)
	p.coeffs[0].SetUint64(1)
	return p
}

// collapseTags reports whether an item's k tags are collapsed into chi on
// arrival. By multiexp.go's bucket-method model (MultiScalarMultCost) it is
// when the k-point multi-scalar multiplication over the 128-bit c_j costs no
// more than what carrying the tags at full width (-zeta*rho*c_j) adds to the
// eps sum of a block holding the item alone: k+1 points (psi and the tags)
// against 2 (psi and chi). A larger block sums its entries more cheaply, so
// there collapsing may cost CPU — but it spends it before the seal, on the
// worker that received the proof. Below two dozen points the chi sum itself
// would run the cheaper interleaved walk, but the model stays the bucket
// method's on both sides: what a carried tag costs is its share of the
// block's sum, and a fleet's block is a bucket-sized one (24 items of k = 8
// carrying their tags into one 216-point eps sum take about 0.6 of the time
// of 24 eight-point chi sums on the walk and a 48-point eps sum). At k = 8
// the tags are carried, at the paper's k = 300 collapsed.
func collapseTags(k int) bool {
	return bn256.MultiScalarMultCost(k, true) <= bn256.MultiScalarMultCost(k+1, false)-bn256.MultiScalarMultCost(2, false)
}

// prepareItems is the per-item step over every item of a batch, each
// distinct *BatchItem once: an item in several slots shares one
// PreparedProof. The items fan out across at most workers goroutines; when
// there are fewer of them than the worker budget (a one-engagement block,
// say) the surplus goes to each item's k tag hashes.
func prepareItems(items []*BatchItem, workers int) []*PreparedProof {
	// The grouping key is the value of (eps, delta); one owner's items
	// usually share the *PublicKey too, so it is encoded once per pointer.
	keys := make(map[*PublicKey]string)
	first := make(map[*BatchItem]int) // the slot that prepares each distinct item
	var distinct []int
	for i, it := range items {
		if _, seen := keys[it.Pub]; !seen {
			keys[it.Pub] = keyID(it.Pub)
		}
		if _, seen := first[it]; !seen {
			first[it] = i
			distinct = append(distinct, i)
		}
	}
	itemWorkers := 1
	if n := len(distinct); n > 0 {
		if budget := parallel.Workers(workers, 0); budget > n {
			itemWorkers = (budget + n - 1) / n
		}
	}
	preps := make([]*PreparedProof, len(items))
	parallel.For(workers, len(distinct), func(j int) {
		it := items[distinct[j]]
		preps[distinct[j]] = prepareItem(it, keys[it.Pub], itemWorkers)
	})
	for i, it := range items {
		preps[i] = preps[first[it]]
	}
	return preps
}

// batchTerm is what one slot contributes to any sub-batch it is verified
// in: its prepared item, which is only read, and the item's scalars scaled
// by the slot's weight rho from the whole-batch transcript. Nothing here is a
// group operation's result beyond the item's chi: the weighted sums are
// evalTerms', over whatever subset it is handed.
type batchTerm struct {
	*PreparedProof

	zr   bn256.Scalar   // zeta*rho: sigma's against g2; negated, psi's against delta
	zrR  bn256.Scalar   // zeta*rho*r: psi's against eps
	tagW []bn256.Scalar // -zeta*rho*c_j: the tags' against eps (the slot's own slice)
	rhoY bn256.Scalar   // rho*y': g1's against eps, negated
	rho  bn256.Scalar   // R's
	slot int            // the slot's position in the block
}

// weighBatch is the block step: it derives the weight rho_i of each slot
// from the whole transcript and scales the slot's item by it into a term of
// its own. It writes into no PreparedProof, so duplicate slots and every
// sub-batch share their items. An item whose challenge failed to expand
// gets no weight.
func weighBatch(preps []*PreparedProof) []*batchTerm {
	transcript := batchTranscript(preps)
	terms := make([]*batchTerm, len(preps))
	for i, p := range preps {
		terms[i] = &batchTerm{PreparedProof: p, slot: i}
		if p.ok {
			terms[i] = p.weigh(i, batchWeight(transcript, i))
		}
	}
	return terms
}

// weigh returns the term of p in slot, its scalars scaled by the weight rho.
func (p *PreparedProof) weigh(slot int, rho bn256.Scalar) *batchTerm {
	term := &batchTerm{PreparedProof: p, rho: rho, slot: slot}
	term.zr.Mul(&p.zeta, &rho)
	term.zrR.Mul(&term.zr, &p.r)
	var w bn256.Scalar
	w.Neg(&term.zr)
	term.tagW = make([]bn256.Scalar, len(p.coeffs))
	for j := range p.coeffs {
		term.tagW[j].Mul(&p.coeffs[j], &w)
	}
	term.rhoY.Mul(&rho, &p.proof.YPrime)
	return term
}

// evalTerms returns the value of one (sub-)batch of prepared terms whose
// challenges expanded, prod_i E_i^{rho_i} in GT, E_i the value of item i's
// equation: one iff the batch verifies. All of its group arithmetic happens
// here, over exactly the terms it is handed — the search evaluates
// sub-batches and index-weighted copies through it, so there is one path and
// no cache of per-item products. For the items under each distinct owner
// key, keys in order of first appearance, it forms
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
// so the value is identical at any worker count.
func evalTerms(terms []*batchTerm, stats *BatchStats, workers int) *bn256.GT {
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
	return res.Add(res, rAgg)
}

// keyGroup is the terms of one (sub-)batch under one owner key.
type keyGroup struct {
	terms     []*batchTerm
	epsPoints int // points of the eps sum: a psi and the tags per item
}

// epsSum returns what the group pairs against eps (see evalTerms): one
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
