package bn256

import (
	"crypto/sha256"
	"encoding/binary"
)

// sqrtFp2 returns a square root of a in Fp2, or nil if a is a non-residue.
// It uses the classical "complex" method: with a = x*i + y and norm
// N = x^2 + y^2, a root c = cx*i + cy satisfies cy^2 = (y ± sqrt(N))/2 and
// cx = x / (2*cy).
func sqrtFp2(a *gfP2) *gfP2 {
	if a.IsZero() {
		return newGFp2()
	}
	if a.x.IsZero() {
		// a = y is a base-field element: either y is a residue, or
		// -y is (then sqrt = sqrt(-y) * i since i^2 = -1).
		var r gfP
		if r.Sqrt(&a.y) != nil {
			out := newGFp2()
			out.y.Set(&r)
			return out
		}
		var ny gfP
		gfpNeg(&ny, &a.y)
		if r.Sqrt(&ny) != nil {
			out := newGFp2()
			out.x.Set(&r)
			return out
		}
		return nil
	}

	var n, t, lambda gfP
	gfpMul(&n, &a.x, &a.x)
	gfpMul(&t, &a.y, &a.y)
	gfpAdd(&n, &n, &t)
	if lambda.Sqrt(&n) == nil {
		return nil
	}

	var two, twoInv gfP
	two.SetInt64(2)
	twoInv.Invert(&two)
	for _, sign := range []int{1, -1} {
		l := lambda
		if sign < 0 {
			gfpNeg(&l, &l)
		}
		var cy2, cy gfP
		gfpAdd(&cy2, &a.y, &l)
		gfpMul(&cy2, &cy2, &twoInv)
		if cy.Sqrt(&cy2) == nil || cy.IsZero() {
			continue
		}
		var cx gfP
		gfpDouble(&cx, &cy)
		cx.Invert(&cx)
		gfpMul(&cx, &cx, &a.x)
		cand := &gfP2{x: cx, y: cy}
		if newGFp2().Square(cand).Equal(a) {
			return cand
		}
	}
	return nil
}

// hashToFp maps msg to an Fp element by counter-mode SHA-256: msg[1] is the
// slot of the digest counter. Two 256-bit digests are concatenated and
// reduced mod p so the output bias is negligible (< 2^-250).
func hashToFp(msg []byte) gfP {
	var buf [2 * sha256.Size]byte
	for half := 0; half < 2; half++ {
		msg[1] = byte(half)
		d := sha256.Sum256(msg)
		copy(buf[half*sha256.Size:], d[:])
	}
	// The digest pair is the big-endian integer hi*R + lo. Multiplying a
	// raw 256-bit value by R^2 reduces it and puts it in Montgomery form
	// (gfpMul only needs its first operand below p); a second factor gives
	// hi its extra R.
	hi, lo := gfP(limbsFromBytes(buf[:sha256.Size])), gfP(limbsFromBytes(buf[sha256.Size:]))
	gfpMul(&hi, &r2, &hi)
	gfpMul(&hi, &hi, &r2)
	gfpMul(&lo, &r2, &lo)
	gfpAdd(&hi, &hi, &lo)
	return hi
}

// HashToG1 deterministically maps data to a point of G1 by try-and-increment:
// x candidates are derived from SHA-256(counter || data) until x^3+3 is a
// square, and the smaller root is taken. Non-residues are rejected by their
// Legendre symbol, so the square-root exponentiation runs once, on the
// accepted candidate. G1 has prime order equal to the full curve order, so
// no cofactor clearing is required.
func HashToG1(data []byte) *G1 {
	// domain || digest counter || candidate counter || data; tag-sized
	// inputs stay on the stack.
	var stack [64]byte
	msg := append(stack[:0], 0x01, 0, 0, 0, 0, 0)
	msg = append(msg, data...)
	for i := uint32(0); ; i++ {
		binary.BigEndian.PutUint32(msg[2:6], i)
		x := hashToFp(msg)
		var y2, y gfP
		gfpSquare(&y2, &x)
		gfpMul(&y2, &y2, &x)
		gfpAdd(&y2, &y2, &gfpCurveB)
		if y2.Legendre() < 0 || y.Sqrt(&y2) == nil {
			continue
		}
		// Normalize the root choice deterministically: pick the smaller
		// of {y, p-y} as canonical integers.
		var ny gfP
		gfpNeg(&ny, &y)
		if limbsLess(ny.canonical(), y.canonical()) {
			y = ny
		}
		return &G1{p: newCurvePoint().SetAffine(&x, &y)}
	}
}

var (
	g1Gen *curvePoint // generator of G1: (1, 2)
	g2Gen *twistPoint // generator of the order-n subgroup of E'(Fp2)
)

// initGenerators derives the G1 and G2 generators. The G2 generator is found
// deterministically: walk x = j*i + 1 for j = 0, 1, 2, ... until x^3 + b' is
// a square on the twist, then clear the cofactor 2p - n. The result is
// validated to have exact order n.
func initGenerators() {
	var gx, gy gfP
	gx.SetInt64(1)
	gy.SetInt64(2)
	g1Gen = newCurvePoint().SetAffine(&gx, &gy)
	if !g1Gen.IsOnCurve() {
		panic("bn256: G1 generator not on curve")
	}
	chk := newCurvePoint().Mul(g1Gen, Order)
	if !chk.IsInfinity() {
		panic("bn256: G1 generator has wrong order")
	}

	for j := int64(0); ; j++ {
		x := newGFp2().SetInt64s(j, 1)
		y2 := newGFp2().Square(x)
		y2.Mul(y2, x)
		y2.Add(y2, twistB)
		y := sqrtFp2(y2)
		if y == nil {
			continue
		}
		cand := newTwistPoint().SetAffine(x, y)
		cand.Mul(cand, twistCofactor)
		if cand.IsInfinity() {
			continue
		}
		chk := newTwistPoint().Mul(cand, Order)
		if !chk.IsInfinity() {
			panic("bn256: twist cofactor clearing failed")
		}
		cand.MakeAffine()
		g2Gen = cand
		return
	}
}
