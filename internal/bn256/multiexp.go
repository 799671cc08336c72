package bn256

import (
	"context"
	"math/big"
	"sync"

	"repro/internal/parallel"
)

// Multi-scalar multiplication on G1: sum_i k_i * P_i, behind one entry,
// MultiScalarMult, by one of two methods on the same GLV-split entries,
// whichever its cost model prices lower: Straus' interleaved walk up to about
// two dozen points (sigma over a small fleet's 8 chunks, psi over its key's 3
// powers, an acceptance check's weighted sample, and ScalarMult, the walk's
// one-point call), Pippenger's bucket method beyond (psi over a key's 49
// powers, sigma and chi over 300 challenged chunks, a block's eps sum).
//
// The bucket method, in the order the code runs it:
//
//  1. Split. Every scalar is split on its limbs as k = k1 + k2*lambda with
//     |k1|, |k2| < 2^128 (glvDecompose), so n points with 254-bit scalars
//     become 2n entries P, phi(P) = (beta*x, y) with 127-bit scalars: twice
//     the entries, half the windows. A scalar
//     already below 2^128 -- a challenge coefficient, an acceptance or batch
//     weight -- is its own first half and its phi entry is zero, so n short
//     scalars are n live entries on 128-bit windows, not 2n on 127-bit ones.
//     The halves' signs move onto the points, and all points are made affine
//     up front, the non-affine ones sharing one inversion (msmSplit). The
//     interleaved walk starts from the same entries.
//  2. Sort. With signed c-bit digits (boothDigit) a window has 2^(c-1)
//     buckets. For a group of windows at a time, every (entry, window) with a
//     non-zero digit is counting-sorted into one contiguous segment of points
//     per bucket, negated where the digit is (msmScratch.sort).
//  3. Reduce. Each segment is summed in affine coordinates by rounds of
//     pairwise additions. An affine addition needs 1/(x2 - x1), and all the
//     pairs of a round, across every bucket and window of the group, take
//     theirs from one field inversion by Montgomery's trick: about 6 field
//     multiplications per addition against the 11 of a mixed Jacobian one
//     (msmScratch.reduce).
//  4. Sum. The bucket sums come out affine, so the running-sum trick
//     sum_d d*bucket[d] = sum_d (bucket[d] + bucket[d+1] + ...) takes one
//     mixed and one full addition per bucket (msmScratch.windowSums); the
//     window sums are then combined by c doublings each, serially.
//
// The interleaved walk (g1Walk.sum) instead gives every live entry a table of
// its odd multiples P, 3P, ..., 15P, made affine with one inversion shared by
// all of them, and reads each half's width-5 NAF digits (nafRecode) down one
// chain of ~128 doublings, a mixed addition per non-zero digit, one place in
// six. It has no buckets to pay for, which is what a handful of points
// cannot amortize: at c = 3 the bucket term below is most of the cost.
//
// Cost models, in field multiplications: the bucket method's (msmWindowBits
// picks c by it) is windows * (7*live + 27*2^(c-1)) with windows =
// ceil(128/c), live the entries whose half is not zero (a zero one has no
// digit, and sort skips it): 2n for full-width scalars, n for short ones. At
// n = 300 that is c = 6, 22 windows, either way; at 49, c = 5; at 8, c = 3.
// Short scalars halve the first term: on one core of a 2-vCPU Xeon a
// 300-point sigma over 128-bit coefficients takes 2.2 ms against 3.6 ms at
// full width, and took 2.8 ms when such scalars were still Babai-split into
// ~127- and ~64-bit halves. The walk's is fitted to it (msmPicksWalk), and
// the entry runs the walk wherever that is the lower, which is up to about
// two dozen points of either width.
//
// Group and scratch sizing: a group is as many windows as keep its sorted
// entries near msmGroupEntries, so the scratch a reduction walks stays
// cache-sized whatever n is, while a small input gets all its windows in
// one group and with them rounds long enough to pay for their inversion.
// Groups are the unit of parallelism: they fan out across the workers and
// write window sums to index-keyed slots, so the group element, and hence
// every marshalled byte, is the same at any worker count. Scratch is pooled.
// The walk is serial: an input it wins on has a single window group.
//
// Equal x in a pair: a chord slope does not exist when two points of a
// segment share x, and they do whenever an input repeats (a doubling) or
// meets its negation (the sum is infinity, which later rounds must still add
// to). Neither is left to chance or to the caller: the points an acceptance
// check multiplies are chosen by the other party, and gfP.Invert panics on
// zero. slopeDenominator and addAffine handle both, and infinity as an
// operand, in the pair loop. The walk's Jacobian additions handle them
// inside Add and AddMixed.

// MultiScalarMult sets e = sum_i scalars[i] * points[i] and returns e. It is
// the workhorse of both the prover (sigma and psi aggregation) and the
// verifier (chi aggregation); for k = 300 it is roughly 4x faster than k
// independent scalar multiplications. The inputs are only read.
// len(points) must equal len(scalars).
func (e *G1) MultiScalarMult(points []*G1, scalars []Scalar) *G1 {
	return e.multiScalarMult(points, scalars, 1)
}

// MultiScalarMultParallel is MultiScalarMultCtx without a context, over
// scalars taken mod n, for callers that hold big.Ints.
func (e *G1) MultiScalarMultParallel(points []*G1, scalars []*big.Int, workers int) *G1 {
	return e.multiScalarMult(points, scalarsFromBig(scalars), workers)
}

// MultiScalarMultCtx is MultiScalarMult with the window groups fanned out
// across at most workers goroutines (workers <= 0 selects GOMAXPROCS) and
// with cooperative cancellation. The window sums land in index-keyed slots
// and are combined serially in window order, so the result is identical to
// the serial method for any worker count. The group dispatch and every
// reduction round poll ctx, so a prover whose peer vanished abandons the
// multi-scalar multiplication mid-computation instead of finishing a result
// nobody will read. On cancellation it returns ctx.Err() and leaves e
// unspecified; a nil error means e holds the exact same value the serial
// method computes. A context that is never done, such as
// context.Background(), is never polled.
func (e *G1) MultiScalarMultCtx(ctx context.Context, points []*G1, scalars []Scalar, workers int) (*G1, error) {
	if ctx == nil || ctx.Done() == nil {
		return e.multiScalarMult(points, scalars, workers), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := e.multiScalarMultCancelable(ctx, points, scalars, workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func (e *G1) multiScalarMult(points []*G1, scalars []Scalar, workers int) *G1 {
	return e.multiScalarMultCancelable(nil, points, scalars, workers)
}

// msmGroupEntries sizes a window group: as many windows as keep the sorted
// copies of its entries near this count -- 64 bytes each, plus half as much
// again for the denominators and the inversion's prefix products. At
// 2n = 600 that is four windows and ~240 KB; all 22 at once measured 10-20%
// slower.
const msmGroupEntries = 2400

// multiScalarMultCancelable splits the entries and runs the method the cost
// models pick, as described at the top of the file, polling ctx (when
// non-nil) before every window group and every reduction round, or every
// eighth doubling of the walk. It returns nil only if it saw ctx.Err()
// non-nil, which the caller returns.
func (e *G1) multiScalarMultCancelable(ctx context.Context, points []*G1, scalars []Scalar, workers int) *G1 {
	if len(points) != len(scalars) {
		panic("bn256: MultiScalarMult length mismatch")
	}
	e.ensure()

	entries := 2 * len(points)
	aff := make([]affinePoint, entries)
	halves := make([][2]uint64, entries)
	maxBits, live, bases := msmSplit(aff, halves, points, scalars)
	if maxBits == 0 {
		e.p.SetInfinity()
		return e
	}
	if msmPicksWalk(live, bases, maxBits) {
		w := g1Walk{
			tables: make([]curvePoint, entries*nafOdd),
			digits: make([]int8, entries*halfDigits),
			zs:     make([]gfP, entries*(nafOdd-1)),
		}
		if !w.sum(ctx, e.p, aff, halves) {
			return nil
		}
		return e
	}

	if !msmBuckets(ctx, e.p, aff, halves, maxBits, live, workers) {
		return nil
	}
	return e
}

// msmBuckets sets acc = sum_i halves[i] * aff[i] by the bucket method, steps
// 2 to 4 at the top of the file, on the window width msmWindowBits picks for
// live non-zero halves of at most maxBits bits, fanning the window groups out
// across at most workers goroutines. It reports false if ctx (when non-nil)
// ended first.
func msmBuckets(ctx context.Context, acc *curvePoint, aff []affinePoint, halves [][2]uint64, maxBits, live, workers int) bool {
	c, _ := msmWindowBits(live, maxBits)
	// Digits are signed (boothDigit), so a window needs half the buckets; a
	// negative digit adds the negated point. The top window must see a
	// clear sign bit, hence maxBits+1.
	windows := (maxBits + c) / c
	perGroup := max(1, msmGroupEntries/len(aff))
	groups := (windows + perGroup - 1) / perGroup
	perGroup = (windows + groups - 1) / groups // the same number of groups, evened out

	// A group's reduction touches every entry but no other group's state, so
	// the groups fan out across the workers; the carry-dependent combine
	// below stays serial.
	windowSums := make([]curvePoint, windows)
	groupPass := func(g int) {
		s := msmScratchPool.Get().(*msmScratch)
		defer msmScratchPool.Put(s)
		w0 := g * perGroup
		s.sort(aff, halves, w0, min(w0+perGroup, windows), c)
		if s.reduce(ctx) {
			s.windowSums(windowSums[w0:], c)
		}
	}
	if ctx != nil {
		// A group abandons its reduction only once ctx.Err is non-nil, and
		// that is final: checking it here covers every group.
		if parallel.ForCtx(ctx, workers, groups, groupPass) != nil || ctx.Err() != nil {
			return false
		}
	} else {
		parallel.For(workers, groups, groupPass)
	}

	acc.SetInfinity()
	for w := windows - 1; w >= 0; w-- {
		for i := 0; i < c; i++ {
			acc.Double(acc)
		}
		acc.Add(acc, &windowSums[w])
	}
	return true
}

// msmSplit turns n points and scalars into the 2n entries of the GLV-split
// multiplication, entry 2i being (P_i, k1) and 2i+1 (phi(P_i), k2): affine
// coordinates in aff with the halves' signs moved onto the points, magnitudes
// in halves. The inputs are not written to. A nil or infinite point leaves
// both its entries zero, which every later stage skips. It returns the bit
// length of the longest half, the number of non-zero halves and the number
// of points with one.
func msmSplit(aff []affinePoint, halves [][2]uint64, points []*G1, scalars []Scalar) (maxBits, live, bases int) {
	// Points that are not affine already share one field inversion, three
	// multiplications each against the five every one of their ~40 bucket
	// additions would otherwise pay.
	var zs []gfP // the z of entry proj[j], then its inverse
	var proj []int
	for i, p := range points {
		if p.p == nil || p.p.IsInfinity() {
			continue
		}
		aff[2*i] = affinePoint{p.p.x, p.p.y}
		if !p.p.z.IsOne() {
			if zs == nil {
				zs, proj = make([]gfP, 0, len(points)-i), make([]int, 0, len(points)-i)
			}
			zs, proj = append(zs, p.p.z), append(proj, 2*i)
		}
	}
	batchInvert(zs, make([]gfP, len(zs)))
	for j, i := range proj {
		jacobianToAffine(&aff[i].x, &aff[i].y, &zs[j])
	}

	for i := range scalars {
		p, phi := &aff[2*i], &aff[2*i+1]
		if p.IsInfinity() {
			continue
		}
		k1, k2, neg1, neg2 := glvDecompose(&scalars[i].l)
		gfpMul(&phi.x, &p.x, &glvBeta)
		phi.y = p.y
		if neg1 {
			gfpNeg(&p.y, &p.y)
		}
		if neg2 {
			gfpNeg(&phi.y, &phi.y)
		}
		halves[2*i], halves[2*i+1] = k1, k2
		for _, h := range [2]*[2]uint64{&k1, &k2} {
			if b := limbsBitLen(h[:]); b > 0 {
				maxBits, live = max(maxBits, b), live+1
			}
		}
		if k1 != [2]uint64{} || k2 != [2]uint64{} {
			bases++
		}
	}
	return maxBits, live, bases
}

// halfDigits is the length of a GLV half's row of nafRecode digits: the half
// is below 2^128, and its top digit may carry into a 129th place.
const halfDigits = 129

// g1Walk is the memory of the interleaved walk over msmSplit's entries,
// sized by the caller for len(aff) of them: the one-point call, ScalarMult,
// keeps it on the stack.
type g1Walk struct {
	tables []curvePoint // nafOdd per slot: the entry's odd multiples, affine once built
	digits []int8       // halfDigits per slot: the entry's nafRecode row
	zs     []gfP        // nafOdd-1 per point: the z of 3P..15P, then their inverses; as much again for batchInvert
}

// sum sets acc = sum_i halves[i] * aff[i] by Straus' interleaved walk over
// width-nafWindow NAF digits (Moeller, SAC 2001). Each point with a non-zero
// half gets one slot for its own entry, built as P, 3P, ..., 15P by steps of
// 2P, and one more for its phi entry if that half is live, the same table
// under phi (beta times x, and y negated where the two entries' signs
// differ). The tables are made affine together with one shared inversion, so
// the walk -- one chain of doublings as long as the longest half, serving
// every slot -- adds each non-zero digit's multiple with a mixed addition. It
// polls ctx (when non-nil) every eighth doubling and reports false if ctx
// ended first.
func (w *g1Walk) sum(ctx context.Context, acc *curvePoint, aff []affinePoint, halves [][2]uint64) bool {
	// The tables in Jacobian coordinates, and every slot's digits.
	slots, zn, top := 0, 0, 0
	for i := 0; i < len(aff); i += 2 {
		if halves[i] == [2]uint64{} && halves[i+1] == [2]uint64{} {
			continue
		}
		t := w.tables[slots*nafOdd:][:nafOdd]
		t[0] = curvePoint{aff[i].x, aff[i].y, rOne}
		var twice curvePoint
		twice.Double(&t[0])
		t[1].AddMixed(&twice, &t[0])
		for j := 2; j < nafOdd; j++ {
			t[j].Add(&t[j-1], &twice)
		}
		for j := 1; j < nafOdd; j++ {
			w.zs[zn] = t[j].z
			zn++
		}
		top = max(top, nafRecode(w.digits[slots*halfDigits:][:halfDigits], halves[i][:]))
		slots++
		if halves[i+1] != [2]uint64{} {
			top = max(top, nafRecode(w.digits[slots*halfDigits:][:halfDigits], halves[i+1][:]))
			slots++
		}
	}

	// Affine, in the same order: the own tables by the shared inversion, a
	// phi slot from the own slot before it.
	batchInvert(w.zs[:zn], w.zs[zn:2*zn])
	slot, zn := 0, 0
	for i := 0; i < len(aff); i += 2 {
		if halves[i] == [2]uint64{} && halves[i+1] == [2]uint64{} {
			continue
		}
		t := w.tables[slot*nafOdd:][:nafOdd]
		for j := 1; j < nafOdd; j++ {
			jacobianToAffine(&t[j].x, &t[j].y, &w.zs[zn])
			t[j].z = rOne
			zn++
		}
		slot++
		if halves[i+1] == [2]uint64{} {
			continue
		}
		phi := w.tables[slot*nafOdd:][:nafOdd]
		for j := range phi {
			phi[j] = t[j]
			gfpMul(&phi[j].x, &phi[j].x, &glvBeta)
			if aff[i+1].y != aff[i].y {
				gfpNeg(&phi[j].y, &phi[j].y)
			}
		}
		slot++
	}

	acc.SetInfinity()
	var neg curvePoint
	for pos := top - 1; pos >= 0; pos-- {
		if ctx != nil && pos%8 == 0 && ctx.Err() != nil {
			return false
		}
		acc.Double(acc)
		for s := 0; s < slots; s++ {
			switch d := w.digits[s*halfDigits+pos]; {
			case d > 0:
				acc.AddMixed(acc, &w.tables[s*nafOdd+int(d>>1)])
			case d < 0:
				neg.Neg(&w.tables[s*nafOdd+int(-d>>1)])
				acc.AddMixed(acc, &neg)
			}
		}
	}
	return true
}

// msmScratch is the working memory of one window group. It is pooled: a
// group's scratch is a few hundred KB, and allocating it per group showed up
// as +17% peak RSS on a prover-bound workload.
type msmScratch struct {
	codes       []int32       // per entry and window: bucket<<1 | negate, -1 for digit zero
	start, size []int32       // per bucket: its segment of pts
	pts         []affinePoint // the group's entries, sorted by bucket
	den, prefix []gfP         // a round's denominators, and batchInvert's scratch
}

var msmScratchPool = sync.Pool{New: func() any { return new(msmScratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sort counting-sorts the entries of windows [w0, w1) into one contiguous
// segment of s.pts per bucket, bucket (w-w0)<<(c-1) + |d|-1 collecting the
// entries whose signed digit in window w is d, negated when d < 0.
func (s *msmScratch) sort(aff []affinePoint, halves [][2]uint64, w0, w1, c int) {
	buckets := (w1 - w0) << (c - 1)
	s.codes = grow(s.codes, len(aff)*(w1-w0))
	s.start, s.size = grow(s.start, buckets), grow(s.size, buckets)
	clear(s.size)
	n := 0
	for i := range halves {
		for w := w0; w < w1; w++ {
			code := int32(-1)
			if d := boothDigit(halves[i][:], w, c); d > 0 {
				code = int32((w-w0)<<(c-1)+d-1) << 1
			} else if d < 0 {
				code = int32((w-w0)<<(c-1)-d-1)<<1 | 1
			}
			if code >= 0 {
				s.size[code>>1]++
			}
			s.codes[n] = code
			n++
		}
	}
	total := int32(0)
	for b, sz := range s.size {
		s.start[b], s.size[b] = total, 0 // size counts up again as the segment fills
		total += sz
	}
	s.pts = grow(s.pts, int(total))
	s.den, s.prefix = grow(s.den, int(total)/2), grow(s.prefix, int(total)/2)
	n = 0
	for i := range aff {
		for w := w0; w < w1; w++ {
			code := s.codes[n]
			n++
			if code < 0 {
				continue
			}
			b := code >> 1
			p := &s.pts[s.start[b]+s.size[b]]
			s.size[b]++
			*p = aff[i]
			if code&1 != 0 {
				gfpNeg(&p.y, &p.y)
			}
		}
	}
}

// reduce sums every bucket's segment down to at most one point, in rounds:
// a round adds the segment's points in pairs, (0, 1) into 0, (2, 3) into 1
// and so on with an odd last one carried over, and all the pairs of a round,
// across every bucket, share one field inversion. It reports false if ctx
// ended first.
func (s *msmScratch) reduce(ctx context.Context) bool {
	for {
		if ctx != nil && ctx.Err() != nil {
			return false
		}
		n, pairs := 0, 0
		for b, sz := range s.size {
			seg := s.pts[s.start[b]:][:sz]
			pairs += len(seg) / 2
			for j := 0; j+1 < len(seg); j += 2 {
				if slopeDenominator(&s.den[n], &seg[j], &seg[j+1]) {
					n++
				}
			}
		}
		if pairs == 0 {
			return true
		}
		batchInvert(s.den[:n], s.prefix)
		n = 0
		for b, sz := range s.size {
			seg := s.pts[s.start[b]:][:sz]
			for j := 0; j+1 < len(seg); j += 2 {
				if addAffine(&seg[j/2], &seg[j], &seg[j+1], &s.den[n]) {
					n++
				}
			}
			if sz&1 == 1 {
				seg[sz/2] = seg[sz-1]
			}
			s.size[b] = (sz + 1) / 2
		}
	}
}

// slopeDenominator sets den to the denominator of the chord or tangent slope
// of a + b and reports true, or reports false when the sum needs no slope.
// A provider chooses the points an acceptance check multiplies, and
// gfP.Invert panics on zero, so equal x is a case, not an assumption: equal
// points double (2y is not zero, the group has no point of order two) and
// opposite ones cancel.
func slopeDenominator(den *gfP, a, b *affinePoint) bool {
	switch {
	case a.IsInfinity() || b.IsInfinity():
		return false
	case a.x != b.x:
		gfpSub(den, &b.x, &a.x)
	case a.y == b.y:
		gfpDouble(den, &a.y)
	default:
		return false
	}
	return true
}

// addAffine sets r = a + b, r possibly a, and reports whether it used inv,
// the inverse of what slopeDenominator produced for the pair: five
// multiplications and a squaring with the inversion's share, against
// AddMixed's eleven.
func addAffine(r, a, b *affinePoint, inv *gfP) bool {
	var lambda, t gfP
	switch {
	case a.IsInfinity():
		*r = *b
		return false
	case b.IsInfinity():
		*r = *a
		return false
	case a.x != b.x:
		gfpSub(&lambda, &b.y, &a.y)
	case a.y == b.y:
		gfpSquare(&t, &a.x)
		gfpDouble(&lambda, &t)
		gfpAdd(&lambda, &lambda, &t)
	default:
		*r = affinePoint{}
		return false
	}
	gfpMul(&lambda, &lambda, inv)
	var x3, y3 gfP
	gfpSquare(&x3, &lambda)
	gfpSub(&x3, &x3, &a.x)
	gfpSub(&x3, &x3, &b.x)
	gfpSub(&y3, &a.x, &x3)
	gfpMul(&y3, &y3, &lambda)
	gfpSub(&y3, &y3, &a.y)
	r.x, r.y = x3, y3
	return true
}

// windowSums writes sum_d d * bucket[d-1] of each of the group's windows to
// sums, by the running-sum trick; the reduced buckets are affine, so the
// running sum takes mixed additions.
func (s *msmScratch) windowSums(sums []curvePoint, c int) {
	perWindow := 1 << (c - 1)
	bucket := curvePoint{z: rOne}
	for w := 0; w < len(s.size)/perWindow; w++ {
		var running, sum curvePoint
		running.SetInfinity()
		sum.SetInfinity()
		for b := (w+1)*perWindow - 1; b >= w*perWindow; b-- {
			if s.size[b] == 1 && !s.pts[s.start[b]].IsInfinity() {
				bucket.x, bucket.y = s.pts[s.start[b]].x, s.pts[s.start[b]].y
				running.AddMixed(&running, &bucket)
			}
			sum.Add(&sum, &running)
		}
		sums[w] = sum
	}
}

// msmPicksWalk reports whether the interleaved walk is the cheaper method for
// live non-zero halves of at most maxBits bits on bases points: whether its
// modeled cost, in the units of msmWindowBits,
//
//	(maxBits+1) * 10  +  live * (maxBits+1)/(nafWindow+1) * 14  +  bases * 120  +  150,
//
// is below the bucket method's. The terms are a doubling per digit place, a
// mixed addition per expected non-zero digit of a live half, a point's table
// (a doubling, seven additions and seven affine conversions) and the shared
// inversion. The weights are fitted to the two methods timed against each
// other on the same entries, one core of a 2-vCPU Xeon: the walk takes 0.5
// of the bucket method's time at one full-width point, 0.6 at three, 0.7 at
// eight short ones, and they cross over near 24 points either way, where the
// model puts them too.
func msmPicksWalk(live, bases, maxBits int) bool {
	digits := int64(maxBits + 1)
	walk := digits*10 + int64(live)*digits*14/(nafWindow+1) + int64(bases)*120 + 150
	_, buckets := msmWindowBits(live, maxBits)
	return walk < buckets
}

// msmWindowBits picks the bucket width for the given number of entries with
// non-zero scalars of at most maxBits bits by minimizing the modeled cost in
// field multiplications,
//
//	windows(c) * (7*entries + 27*2^(c-1)),
//
// an entry costing its affine bucket addition (6) and about one more to be
// sorted into the bucket, and each of the 2^(c-1) buckets of a signed-digit
// window one mixed (11) and one full (16) addition into the window's sum. It
// returns the width and its cost.
func msmWindowBits(entries, maxBits int) (int, int64) {
	best, bestCost := 1, int64(1)<<62
	for c := 1; c <= 16; c++ {
		windows := int64((maxBits + c) / c)
		cost := windows * (7*int64(entries) + int64(27)<<(c-1))
		if cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best, bestCost
}

// MultiScalarMultCost returns the modeled cost, in field multiplications, of
// the bucket method over n points whose scalars are all short (below 2^128:
// n entries on 128-bit windows) or all full-width (2n GLV halves on 127-bit
// windows), at the window width it would pick. It is the model above, for
// callers choosing between two ways of forming one sum. It stays the bucket
// method's cost below the interleaved walk's crossover too: that is the price
// of a point carried into a larger sum, which is what such a caller weighs.
func MultiScalarMultCost(n int, short bool) int64 {
	if n <= 0 {
		return 0
	}
	if short {
		_, cost := msmWindowBits(n, 128)
		return cost
	}
	_, cost := msmWindowBits(2*n, 127)
	return cost
}
