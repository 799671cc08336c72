package bn256

import (
	"context"
	"errors"
	"math/big"
	"math/bits"

	"repro/internal/parallel"
)

// msmCheckInterval is how many points a bucket pass accumulates between
// context polls in MultiScalarMultCtx: frequent enough that a canceled
// prover stops within microseconds, rare enough to stay off the profile.
const msmCheckInterval = 64

// MultiScalarMult sets e = sum_i scalars[i] * points[i] using Pippenger's
// bucket method and returns e. It is the workhorse of both the prover
// (sigma and psi aggregation) and the verifier (chi aggregation); for
// k = 300 it is roughly 2.5x faster than k independent scalar
// multiplications (ScalarMult's GLV ladder, which halved that gap).
// len(points) must equal len(scalars).
func (e *G1) MultiScalarMult(points []*G1, scalars []*big.Int) *G1 {
	return e.multiScalarMult(points, scalars, 1)
}

// MultiScalarMultParallel is MultiScalarMult with the per-window bucket
// accumulation fanned out across at most workers goroutines (workers <= 0
// selects GOMAXPROCS). Each of the ~maxBits/c windows is an independent
// bucket pass over all the points; the window sums are combined serially in
// window order, so the result is identical to the serial method for any
// worker count.
func (e *G1) MultiScalarMultParallel(points []*G1, scalars []*big.Int, workers int) *G1 {
	return e.multiScalarMult(points, scalars, workers)
}

// MultiScalarMultCtx is MultiScalarMultParallel with cooperative
// cancellation: the window dispatch and each window's bucket pass poll ctx
// (every msmCheckInterval points), so a prover whose peer vanished abandons
// the multi-scalar multiplication mid-computation instead of finishing a
// result nobody will read. On cancellation it returns ctx.Err() and leaves
// e unspecified; a nil error means e holds the exact same value the serial
// method computes.
func (e *G1) MultiScalarMultCtx(ctx context.Context, points []*G1, scalars []*big.Int, workers int) (*G1, error) {
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
	if res == nil {
		// Canceled between the last poll and the windows' completion.
		return nil, errMSMCanceled
	}
	return res, nil
}

var errMSMCanceled = errors.New("bn256: multi-scalar multiplication canceled")

func (e *G1) multiScalarMult(points []*G1, scalars []*big.Int, workers int) *G1 {
	return e.multiScalarMultCancelable(nil, points, scalars, workers)
}

// multiScalarMultCancelable runs Pippenger's method, polling ctx (when
// non-nil) inside the per-window point loops. It returns nil if a window
// was abandoned; the caller maps that to ctx.Err().
func (e *G1) multiScalarMultCancelable(ctx context.Context, points []*G1, scalars []*big.Int, workers int) *G1 {
	if len(points) != len(scalars) {
		panic("bn256: MultiScalarMult length mismatch")
	}
	e.ensure()

	// Reduce scalars into [0, n) once up front.
	words := make([][]big.Word, len(scalars))
	maxBits := 0
	for i, s := range scalars {
		r := new(big.Int).Mod(s, Order)
		if b := r.BitLen(); b > maxBits {
			maxBits = b
		}
		// A word view, so digit extraction shifts whole words instead of
		// assembling digits one Bit() call at a time.
		words[i] = r.Bits()
	}
	if maxBits == 0 {
		e.p.SetInfinity()
		return e
	}

	// Digits are signed (boothDigit), so a window needs half the buckets; a
	// negative digit adds the negated point. The top window must see a
	// clear sign bit, hence maxBits+1.
	c := msmWindowBits(len(points), maxBits)
	windows := (maxBits + c) / c
	aff := affineCopies(points)

	// Each window's bucket accumulation touches every point but no other
	// window's state, so the windows fan out across the workers; the
	// carry-dependent combine below stays serial.
	windowSums := make([]*curvePoint, windows)
	windowPass := func(w int) {
		buckets := make([]curvePoint, 1<<(c-1)) // bucket[d-1] collects digit d
		var neg curvePoint
		for i := range aff {
			if ctx != nil && i%msmCheckInterval == 0 && ctx.Err() != nil {
				return // abandon the window: windowSums[w] stays nil
			}
			pt, d := &aff[i], boothDigit(words[i], w, c)
			if d < 0 {
				neg.Neg(pt)
				pt, d = &neg, -d
			}
			if d != 0 {
				buckets[d-1].AddMixed(&buckets[d-1], pt)
			}
		}
		// Running-sum trick: sum_{d} d * bucket[d-1].
		running := newCurvePoint().SetInfinity()
		windowSum := newCurvePoint().SetInfinity()
		for b := len(buckets) - 1; b >= 0; b-- {
			running.Add(running, &buckets[b])
			windowSum.Add(windowSum, running)
		}
		windowSums[w] = windowSum
	}
	if ctx != nil {
		if parallel.ForCtx(ctx, workers, windows, windowPass) != nil {
			return nil
		}
		for _, ws := range windowSums {
			if ws == nil {
				return nil
			}
		}
	} else {
		parallel.For(workers, windows, windowPass)
	}

	acc := newCurvePoint().SetInfinity()
	for w := windows - 1; w >= 0; w-- {
		for i := 0; i < c; i++ {
			acc.Double(acc)
		}
		acc.Add(acc, windowSums[w])
	}
	e.p.Set(acc)
	return e
}

// affineCopies returns the points in affine form -- z one, or zero for the
// point at infinity, which is also what the zero G1 is -- without touching
// the inputs. Points that are not affine already share one field inversion
// (Montgomery's trick), a few multiplications each against the five every
// one of their ~40 bucket additions then saves.
func affineCopies(points []*G1) []curvePoint {
	aff := make([]curvePoint, len(points))
	var prefix []gfP // prefix[j]: product of the z's before the j-th projective point
	var proj []int
	acc := rOne
	for i, p := range points {
		if p.p == nil {
			continue
		}
		aff[i] = *p.p
		if z := &aff[i].z; !z.IsZero() && !z.IsOne() {
			prefix, proj = append(prefix, acc), append(proj, i)
			gfpMul(&acc, &acc, z)
		}
	}
	if len(proj) == 0 {
		return aff
	}
	acc.Invert(&acc)
	for j := len(proj) - 1; j >= 0; j-- {
		p := &aff[proj[j]]
		var zInv, zInv2 gfP
		gfpMul(&zInv, &acc, &prefix[j])
		gfpMul(&acc, &acc, &p.z)
		gfpSquare(&zInv2, &zInv)
		gfpMul(&p.x, &p.x, &zInv2)
		gfpMul(&zInv2, &zInv2, &zInv)
		gfpMul(&p.y, &p.y, &zInv2)
		p.z = rOne
	}
	return aff
}

// msmWindowBits picks the Pippenger bucket width for k points of maxBits-bit
// scalars by minimizing the modeled cost in field multiplications,
//
//	windows(c) * (11k mixed bucket adds + 16*2^c running-sum adds + 7c doublings),
//
// with 2^(c-1) buckets per signed-digit window and two full additions per
// bucket. It tracks the ln-optimal window: small batches (the k=16 bisection
// leaves of VerifyBatch) get a narrow window instead of paying the k=300
// bucket cost, and very large batches widen.
func msmWindowBits(k, maxBits int) int {
	best, bestCost := 1, int64(1)<<62
	for c := 1; c <= 16; c++ {
		windows := int64((maxBits + c) / c)
		cost := windows * (11*int64(k) + int64(16)<<c + 7*int64(c))
		if cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

// boothDigit returns the signed digit of window w (c bits wide) of the nat
// words: it reads bits [wc-1, wc+c), counts the lowest once and the highest
// as -2^c, and lands in [-2^(c-1), 2^(c-1)]. The digits of all windows up to
// (bitLen+c)/c - 1 -- the top one must see a clear sign bit -- sum to the
// value.
func boothDigit(words []big.Word, w, c int) int {
	var raw int
	if w == 0 {
		raw = scalarDigit(words, 0, c) << 1
	} else {
		raw = scalarDigit(words, w*c-1, c+1)
	}
	return (raw+1)>>1 - raw>>c<<c
}

const wordBits = bits.UintSize

// scalarDigit extracts the width-bit digit of the nat words starting at bit
// position bit. width must be at most wordBits, so a digit spans at most two
// words.
func scalarDigit(words []big.Word, bit, width int) int {
	idx := bit / wordBits
	if idx >= len(words) {
		return 0
	}
	shift := bit % wordBits
	d := uint(words[idx]) >> shift
	if rem := wordBits - shift; rem < width && idx+1 < len(words) {
		d |= uint(words[idx+1]) << rem
	}
	return int(d & (1<<width - 1))
}
