package bn256

import (
	"math/big"
	"sync"

	"repro/internal/parallel"
)

// Fixed-base scalar multiplication of the G1 generator with an 8-bit
// windowed table of affine points: g1Table[w][d-1] = d * 2^(8w) * g1. A
// 254-bit scalar then costs at most 32 mixed additions and no doublings,
// where ScalarMult's GLV walk on an arbitrary point pays ~128 doublings
// plus ~43 additions.
//
// The table (32 windows x 255 non-zero digits, 64 bytes each) is built
// lazily on first use so programs that never touch G1 base multiplications
// pay nothing.
//
// The data owner's Setup computes sigma_i = x*(m_i*g1 + t_i) for every chunk
// of a file: a base multiplication, a tag added, and one secret x for all of
// them. ScaledBaseSums runs it in lockstep over each worker's contiguous
// slice of chunks, every lane taking the same steps:
//
//  1. Comb. The lanes start at their tags, affine, and window w adds
//     g1Table[w][d-1] for each lane's digit d of m_i: 32 steps.
//  2. Table. x is GLV-split and NAF-recoded once (glvDecompose, nafRecode),
//     and each lane's odd multiples B, 3B, ..., 15B of its base B are built
//     by one doubling and seven additions, the phi tables (beta*x, y) from
//     them: 8 steps.
//  3. Walk. One doubling per digit place and one addition per non-zero digit
//     of either half, as in g1Walk.sum, all lanes reading the same digit:
//     ~128 + ~43 steps.
//
// Every step is an affine addition (or doubling) in every lane, and all the
// lanes' slopes come from one field inversion by Montgomery's trick
// (Math. Comp. 1987), run inside the step's two passes over the lanes
// (lockstep.step): slopeDenominator and addAffine, as in the MSM's bucket
// reduction, equal x, opposite points and infinity included.
// A lane's affine addition costs ~6 field multiplications against a mixed
// Jacobian one's ~10, its doubling ~6.6 against ~6, and it needs no per-point
// inversion to make its base and table affine; what the lanes share is one
// inversion (~4.5 us, ~100 multiplications) per step. lockstepPays weighs
// the two per pass. Where a worker's slice is too short to pay an inversion
// per step (a fleet file's 17 chunks, 8 a worker) the pass runs per point
// instead, mulBaseAdd or ScalarMult on each lane, the lanes spread across the
// workers one at a time and made affine together by one inversion.
// ScalarBaseMultBatch is the comb alone, from infinity: a key's powers of
// alpha.

const (
	fbWindowBits = 8
	fbWindows    = 32 // ceil(254 / 8)
	fbTableSize  = 1 << fbWindowBits
)

var (
	g1TableOnce sync.Once
	g1Table     [fbWindows][fbTableSize - 1]affinePoint
)

func buildG1Table() {
	jac := make([]curvePoint, fbWindows*(fbTableSize-1))
	base := newCurvePoint().Set(g1Gen)
	for w := 0; w < fbWindows; w++ {
		row := jac[w*(fbTableSize-1):][:fbTableSize-1]
		row[0] = *base
		for d := 1; d < len(row); d++ {
			row[d].Add(&row[d-1], base)
		}
		for i := 0; i < fbWindowBits; i++ {
			base.Double(base)
		}
	}
	flat := make([]affinePoint, len(jac))
	affineLanes(flat, jac) // no entry is infinity: d * 2^(8w) < n
	for i := range flat {
		g1Table[i/(fbTableSize-1)][i%(fbTableSize-1)] = flat[i]
	}
}

// mulBaseFixed computes (k mod n)*g1 via the window table.
func mulBaseFixed(k *big.Int) *curvePoint {
	limbs := scalarFromBig(k)
	acc := newCurvePoint().SetInfinity()
	mulBaseAdd(acc, &limbs)
	return acc
}

// mulBaseAdd adds k*g1 to acc, k canonical below n, by one mixed addition
// per non-zero window digit.
func mulBaseAdd(acc *curvePoint, k *[4]uint64) {
	g1TableOnce.Do(buildG1Table)
	entry := curvePoint{z: rOne}
	for w := 0; w < fbWindows; w++ {
		if d := scalarDigit(k[:], w*fbWindowBits, fbWindowBits); d != 0 {
			entry.x, entry.y = g1Table[w][d-1].x, g1Table[w][d-1].y
			acc.AddMixed(acc, &entry)
		}
	}
}

// ScalarBaseMultBatch returns ks[i]*g1 for every i, affine: the comb of
// ScaledBaseSums from infinity, for a key's powers of alpha.
func ScalarBaseMultBatch(ks []Scalar) []*G1 {
	lanes := make([]affinePoint, len(ks))
	comb(lanes, ks, 1)
	return g1sFromAffine(lanes)
}

// ScaledBaseSums returns x*(ms[i]*g1 + tags[i]) for every i, affine, by the
// lockstep method at the top of the file across at most workers goroutines
// (workers <= 0 selects GOMAXPROCS). A nil or zero-valued tag is the
// identity. Each result is the same group element at any worker count, and
// the inputs are only read. len(ms) must equal len(tags).
func ScaledBaseSums(x *Scalar, ms []Scalar, tags []*G1, workers int) []*G1 {
	if len(ms) != len(tags) {
		panic("bn256: ScaledBaseSums length mismatch")
	}
	lanes := lanesFromG1(tags)
	comb(lanes, ms, workers)
	mul(lanes, newLockstepScalar(x), workers)
	return g1sFromAffine(lanes)
}

// lanesFromG1 returns the points affine, the identity (or a nil point) as
// (0, 0), those that are not affine already sharing one inversion.
func lanesFromG1(points []*G1) []affinePoint {
	lanes := make([]affinePoint, len(points))
	var zs []gfP // the z of lane proj[j], then its inverse
	var proj []int
	for i, e := range points {
		if e == nil {
			continue
		}
		if p := e.point(); !p.IsInfinity() {
			lanes[i] = affinePoint{p.x, p.y}
			if !p.z.IsOne() {
				zs, proj = append(zs, p.z), append(proj, i)
			}
		}
	}
	batchInvert(zs, make([]gfP, len(zs)))
	for j, i := range proj {
		jacobianToAffine(&lanes[i].x, &lanes[i].y, &zs[j])
	}
	return lanes
}

// g1sFromAffine returns the lanes as group elements, allocated together.
func g1sFromAffine(lanes []affinePoint) []*G1 {
	pts := make([]curvePoint, len(lanes))
	gs := make([]G1, len(lanes))
	out := make([]*G1, len(lanes))
	for i := range lanes {
		if lanes[i].IsInfinity() {
			pts[i].SetInfinity()
		} else {
			pts[i] = curvePoint{lanes[i].x, lanes[i].y, rOne}
		}
		gs[i].p = &pts[i]
		out[i] = &gs[i]
	}
	return out
}

// lockstepScalar is the shared multiplier of a lockstep walk, split and
// recoded once for all lanes; x is what the per-point path takes.
type lockstepScalar struct {
	x      *big.Int
	halves [2][2]uint64
	neg    [2]bool // the half is the negated multiplier of its point
	digits [2][halfDigits]int8
	top    int // digit places up to the last non-zero one of either half
	adds   int // non-zero digits of both halves
}

func newLockstepScalar(x *Scalar) *lockstepScalar {
	k := &lockstepScalar{x: x.Big()}
	k1, k2, neg1, neg2 := glvDecompose(&x.l)
	k.halves, k.neg = [2][2]uint64{k1, k2}, [2]bool{neg1, neg2}
	for h := range k.halves {
		k.top = max(k.top, nafRecode(k.digits[h][:], k.halves[h][:]))
		for _, d := range k.digits[h] {
			if d != 0 {
				k.adds++
			}
		}
	}
	return k
}

// lockstep is the memory of one slice's batch-affine steps.
type lockstep struct {
	den, prefix []gfP         // per lane: its slope's denominator, the product of those before
	tables      []affinePoint // nafOdd rows of lanes: B, 3B, ..., 15B
	phi         []affinePoint // the same rows under phi, when the second half is live
}

// Modeled costs, in about one field multiplication each (the units of
// msmWindowBits): an inversion; a lane's affine addition or doubling in a
// step, with its share of Montgomery's trick; the per-point path's mixed
// addition, Jacobian doubling, and a point's table of odd multiples with its
// own inversion. The weights are fitted to BenchmarkScaledBaseSums: see
// lockstepPays.
const (
	costInvert     = 100
	costLaneStep   = 9
	costMixedAdd   = 14
	costDouble     = 10
	costPointTable = 350
)

// lockstepPays reports whether steps lockstep steps over lanes lanes,
// costing one inversion each plus costLaneStep per lane, are cheaper than
// the per-point path at perPoint per lane. Timed against each other on one
// core of a 2-vCPU Xeon, in us per point at 8, 42, 85, 170 and 339 lanes
// (minimum of six runs), the comb's 32 steps took 16.8, 9.8, 7.9, 12.1 and
// 7.4 against a per-point 11.4, 12.7, 11.6, 13.7 and 12.3, crossing near 16
// lanes, and the walk's ~175 took 100.3, 55.6, 49.7, 49.1 and 44.9 against
// 67.3, 63.4, 60.5, 58.9 and 59.6, crossing near 31: about 2.7 us of
// inversion per step, 0.25 us per lane step, 0.37 us per mixed addition.
// (The same box read all of them ~1.6x slower, crossovers unmoved, when its
// neighbours were busy.) The model takes the comb's lockstep path from 21
// lanes and the walk's from 29 (TestLockstepPicksPath).
func lockstepPays(lanes, steps int, perPoint int64) bool {
	return int64(steps)*(costInvert+int64(lanes)*costLaneStep) < int64(lanes)*perPoint
}

// combPays is lockstepPays for the comb: 32 steps against 32 mixed additions.
func combPays(lanes int) bool {
	return lockstepPays(lanes, fbWindows, fbWindows*costMixedAdd)
}

// walkPays is lockstepPays for the table and walk by k: a step per table
// entry, digit place and non-zero digit, against a point's table, doublings
// and mixed additions.
func (k *lockstepScalar) walkPays(lanes int) bool {
	perPoint := costPointTable + int64(k.top)*costDouble + int64(k.adds)*costMixedAdd
	return lockstepPays(lanes, nafOdd+k.top+k.adds, perPoint)
}

// inSlices runs pass on at most workers contiguous slices of n lanes, one
// goroutine each, and reports false, running nothing, if a slice of that
// length does not pay for lockstep steps.
func inSlices(n, workers int, pays func(lanes int) bool, pass func(lo, hi int)) bool {
	slices := parallel.Workers(workers, n)
	if !pays(n / slices) {
		return false
	}
	parallel.For(slices, slices, func(s int) { pass(s*n/slices, (s+1)*n/slices) })
	return true
}

// comb adds ms[i]*g1 to every lane in place across at most workers
// goroutines: by the lockstep comb on contiguous slices where combPays says a
// slice pays for it, and lane by lane otherwise.
func comb(lanes []affinePoint, ms []Scalar, workers int) {
	if !inSlices(len(lanes), workers, combPays, func(lo, hi int) {
		new(lockstep).comb(lanes[lo:hi], ms[lo:hi])
	}) {
		combPerPoint(lanes, ms, workers)
	}
}

// combPerPoint is comb's per-point path: mulBaseAdd on each lane, the lanes
// independent items across the workers, then one inversion for all of them.
func combPerPoint(lanes []affinePoint, ms []Scalar, workers int) {
	jac := make([]curvePoint, len(lanes))
	parallel.For(workers, len(lanes), func(i int) {
		if !lanes[i].IsInfinity() {
			jac[i] = curvePoint{lanes[i].x, lanes[i].y, rOne}
		}
		mulBaseAdd(&jac[i], &ms[i].l)
	})
	affineLanes(lanes, jac)
}

// mul multiplies every lane by k in place across at most workers
// goroutines: by the lockstep table and walk on contiguous slices where
// walkPays says a slice pays for them, and lane by lane otherwise.
func mul(lanes []affinePoint, k *lockstepScalar, workers int) {
	if !inSlices(len(lanes), workers, k.walkPays, func(lo, hi int) {
		new(lockstep).mul(lanes[lo:hi], k)
	}) {
		mulPerPoint(lanes, k, workers)
	}
}

// mulPerPoint is mul's per-point path: ScalarMult on each lane, which finds
// it affine and needs no inversion of its own, the lanes independent items
// across the workers, then one inversion for all of them.
func mulPerPoint(lanes []affinePoint, k *lockstepScalar, workers int) {
	jac := make([]curvePoint, len(lanes))
	parallel.For(workers, len(lanes), func(i int) {
		if !lanes[i].IsInfinity() {
			p := curvePoint{lanes[i].x, lanes[i].y, rOne}
			(&G1{p: &jac[i]}).ScalarMult(&G1{p: &p}, k.x)
		}
	})
	affineLanes(lanes, jac)
}

// comb is the lockstep comb: window w adds g1Table[w][d-1] to each lane
// whose digit d of ms[i] is not zero, the identity to the others.
func (s *lockstep) comb(lanes []affinePoint, ms []Scalar) {
	g1TableOnce.Do(buildG1Table)
	entries := make([]affinePoint, len(lanes))
	for w := 0; w < fbWindows; w++ {
		for i := range lanes {
			entries[i] = affinePoint{}
			if d := scalarDigit(ms[i].l[:], w*fbWindowBits, fbWindowBits); d != 0 {
				entries[i] = g1Table[w][d-1]
			}
		}
		s.step(lanes, lanes, entries, false)
	}
}

// mul is the lockstep table and walk: the lanes' tables of odd multiples,
// then the walk down k's digits, every step one inversion for all the lanes.
func (s *lockstep) mul(lanes []affinePoint, k *lockstepScalar) {
	d := len(lanes)

	// The odd multiples, row j = (2j+1)B; lanes holds 2B meanwhile.
	s.tables = grow(s.tables, nafOdd*d)
	copy(s.tables, lanes)
	s.double(lanes)
	for j := 1; j < nafOdd; j++ {
		s.step(s.tables[j*d:][:d], s.tables[(j-1)*d:][:d], lanes, false)
	}
	rows := [2][]affinePoint{s.tables}
	if k.halves[1] != [2]uint64{} {
		s.phi = grow(s.phi, nafOdd*d)
		for i := range s.phi {
			gfpMul(&s.phi[i].x, &s.tables[i].x, &glvBeta)
			s.phi[i].y = s.tables[i].y
		}
		rows[1] = s.phi
	}

	started := false
	for pos := k.top - 1; pos >= 0; pos-- {
		if started {
			s.double(lanes)
		}
		for h := range rows {
			dg := int(k.digits[h][pos])
			if dg == 0 {
				continue
			}
			negate := (dg < 0) != k.neg[h]
			row := rows[h][(max(dg, -dg)>>1)*d:][:d]
			if started {
				s.step(lanes, lanes, row, negate)
				continue
			}
			copy(lanes, row)
			if negate {
				for i := range lanes {
					gfpNeg(&lanes[i].y, &lanes[i].y)
				}
			}
			started = true
		}
	}
	if !started { // k is zero
		clear(lanes)
	}
}

// step sets r[i] = a[i] + b[i], b negated where negate, for every lane, r
// possibly a, all the lanes' slopes from one field inversion: Montgomery's
// trick fused into the two passes over the lanes, the prefix products of the
// slope denominators on the way out (den[i] zero where a lane's sum needs no
// slope), each lane's inverse and sum on the way back.
func (s *lockstep) step(r, a, b []affinePoint, negate bool) {
	s.den, s.prefix = grow(s.den, len(a)), grow(s.prefix, len(a))
	acc, slopes := rOne, false
	for i := range a {
		q := b[i]
		if negate {
			gfpNeg(&q.y, &q.y)
		}
		if !slopeDenominator(&s.den[i], &a[i], &q) {
			s.den[i] = gfP{}
			continue
		}
		s.prefix[i] = acc
		gfpMul(&acc, &acc, &s.den[i])
		slopes = true
	}
	if slopes {
		acc.Invert(&acc)
	}
	for i := len(a) - 1; i >= 0; i-- {
		q := b[i]
		if negate {
			gfpNeg(&q.y, &q.y)
		}
		var inv gfP
		if !s.den[i].IsZero() {
			gfpMul(&inv, &acc, &s.prefix[i])
			gfpMul(&acc, &acc, &s.den[i])
		}
		addAffine(&r[i], &a[i], &q, &inv)
	}
}

// double is step(a, a, a, false) without its case analysis: a lane is the
// identity, which stays, or a point with y != 0 (the group has no point of
// order two), whose tangent slope is 3x^2 / 2y.
func (s *lockstep) double(a []affinePoint) {
	s.den, s.prefix = grow(s.den, len(a)), grow(s.prefix, len(a))
	acc, slopes := rOne, false
	for i := range a {
		if a[i].IsInfinity() {
			s.den[i] = gfP{}
			continue
		}
		gfpDouble(&s.den[i], &a[i].y)
		s.prefix[i] = acc
		gfpMul(&acc, &acc, &s.den[i])
		slopes = true
	}
	if slopes {
		acc.Invert(&acc)
	}
	for i := len(a) - 1; i >= 0; i-- {
		if s.den[i].IsZero() {
			continue
		}
		p := &a[i]
		var inv, lambda, t, x3, y3 gfP
		gfpMul(&inv, &acc, &s.prefix[i])
		gfpMul(&acc, &acc, &s.den[i])
		gfpSquare(&t, &p.x)
		gfpDouble(&lambda, &t)
		gfpAdd(&lambda, &lambda, &t)
		gfpMul(&lambda, &lambda, &inv)
		gfpSquare(&x3, &lambda)
		gfpSub(&x3, &x3, &p.x)
		gfpSub(&x3, &x3, &p.x)
		gfpSub(&y3, &p.x, &x3)
		gfpMul(&y3, &y3, &lambda)
		gfpSub(&y3, &y3, &p.y)
		p.x, p.y = x3, y3
	}
}

// affineLanes writes the Jacobian points to the lanes, affine, with one
// inversion shared by all of them: a per-point pass's results, the
// fixed-base table.
func affineLanes(lanes []affinePoint, jac []curvePoint) {
	zs := make([]gfP, 0, len(jac))
	for i := range jac {
		if !jac[i].IsInfinity() {
			zs = append(zs, jac[i].z)
		}
	}
	batchInvert(zs, make([]gfP, len(zs)))
	n := 0
	for i := range jac {
		if jac[i].IsInfinity() {
			lanes[i] = affinePoint{}
			continue
		}
		lanes[i] = affinePoint{jac[i].x, jac[i].y}
		jacobianToAffine(&lanes[i].x, &lanes[i].y, &zs[n])
		n++
	}
}
