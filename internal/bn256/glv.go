package bn256

import (
	"math/big"
	"math/bits"
)

// Gallant-Lambert-Vanstone scalar multiplication on G1. E: y^2 = x^3 + 3 has
// the endomorphism phi(x, y) = (beta*x, y) for beta a primitive cube root of
// unity in Fp, and on the order-n group it acts as multiplication by lambda,
// a cube root of unity mod n. Writing k = k1 + k2*lambda (mod n) with both
// halves below 2^128 turns [k]P into [k1]P + [k2]phi(P), one joint ladder of
// half the length -- and an n-point multi-scalar multiplication into a
// 2n-point one with half the windows (multiexp.go). The decomposition runs
// on limbs (glvDecompose). lambda, beta, the lattice and the rounding
// multipliers derive from u and are checked in initGLV, like every constant
// of the package.

var (
	// glvLambda is 36u^4 - 1, a root of x^2 + x + 1 mod n.
	glvLambda *big.Int

	// glvBeta is the cube root of unity with [glvLambda](x, y) = (glvBeta*x, y).
	glvBeta gfP

	// The lattice {(a, b) : a + b*lambda = 0 mod n} has the short basis
	// (glvA1, -glvA2), (glvA2, glvB2), of determinant n.
	glvA1 *big.Int // 6u^2 + 2u
	glvA2 *big.Int // 2u + 1
	glvB2 *big.Int // 6u^2 + 4u + 1

	// The same lattice as limbs, and the multipliers that stand in for the
	// two divisions by n: round(2^320 * b2 / n) and round(2^320 * a2 / n).
	glvA1Limbs, glvB2Limbs [2]uint64
	glvA2Limb              uint64
	glvMulB2, glvMulA2     [4]uint64
)

// glvMulShift is the scale of the rounding multipliers. k < 2^254 times a
// multiplier that is off by at most 1/2 misses k*b/n by less than 2^-67.
const glvMulShift = 320

func initGLV() {
	u2 := new(big.Int).Mul(u, u)
	glvLambda = new(big.Int).Mul(u2, u2)
	glvLambda.Mul(glvLambda, big.NewInt(36)).Sub(glvLambda, big.NewInt(1))

	glvA2 = new(big.Int).Lsh(u, 1)
	glvA2.Add(glvA2, big.NewInt(1))
	glvA1 = new(big.Int).Mul(u2, big.NewInt(6))
	glvB2 = new(big.Int).Add(glvA1, new(big.Int).Lsh(u, 2))
	glvB2.Add(glvB2, big.NewInt(1))
	glvA1.Add(glvA1, new(big.Int).Lsh(u, 1))

	isZeroModN := func(x *big.Int) bool { return x.Mod(x, Order).Sign() == 0 }
	t := new(big.Int).Mul(glvLambda, glvLambda)
	if !isZeroModN(t.Add(t, glvLambda).Add(t, big.NewInt(1))) {
		panic("bn256: lambda^2 + lambda + 1 != 0 mod n")
	}
	if t.Mul(glvA2, glvLambda); !isZeroModN(t.Sub(glvA1, t)) {
		panic("bn256: GLV basis vector (6u^2+2u, -(2u+1)) not in the lattice")
	}
	if t.Mul(glvB2, glvLambda); !isZeroModN(t.Add(glvA2, t)) {
		panic("bn256: GLV basis vector (2u+1, 6u^2+4u+1) not in the lattice")
	}

	// glvDecompose's quotients come from the multipliers, so each is the
	// exact rounding or its neighbour and a half is at most one whole basis
	// vector plus half the other, not half of each: that must still fit 128
	// bits, and the constants their limb types.
	bound := new(big.Int).Lsh(big.NewInt(1), 128)
	if t.Add(glvA1, glvA2).Cmp(bound) >= 0 || t.Add(glvA2, glvB2).Cmp(bound) >= 0 || !glvA2.IsUint64() {
		panic("bn256: GLV basis too long for 128-bit halves")
	}
	a1, b2 := limbsFromBig(glvA1), limbsFromBig(glvB2)
	glvA1Limbs, glvB2Limbs, glvA2Limb = [2]uint64{a1[0], a1[1]}, [2]uint64{b2[0], b2[1]}, glvA2.Uint64()
	glvMulB2, glvMulA2 = roundingMultiplier(glvB2), roundingMultiplier(glvA2)

	// Of the two primitive cube roots of unity in Fp, beta is the one that
	// matches lambda; the unreduced ladder decides, on the generator.
	want := newCurvePoint().Mul(g1Gen, glvLambda).MakeAffine()
	for _, beta := range []*gfP{&xiToPSquaredMinus1Over3, &xiTo2PSquaredMinus2Over3} {
		var x gfP
		gfpMul(&x, &g1Gen.x, beta)
		if x == want.x && g1Gen.y == want.y {
			glvBeta = *beta
			return
		}
	}
	panic("bn256: no cube root of unity beta with [lambda]g1 = (beta*x, y)")
}

// roundingMultiplier returns round(2^glvMulShift * b / n), the constant that
// turns round(k*b/n) into one multiplication (mulRoundShift).
func roundingMultiplier(b *big.Int) [4]uint64 {
	q := new(big.Int).Lsh(b, glvMulShift)
	q.Add(q, new(big.Int).Rsh(Order, 1)).Div(q, Order)
	if q.BitLen() > 256 {
		panic("bn256: rounding multiplier does not fit four limbs")
	}
	return limbsFromBig(q)
}

// glvDecompose returns the magnitudes and signs of k1, k2 with
// k1 + k2*lambda = k (mod n) and |k1|, |k2| < 2^128, for k in [0, n), by
// Babai rounding: subtract from (k, 0) the lattice vector nearest to it,
//
//	(k, 0) - c1*(a1, -a2) - c2*(a2, b2),  c1 = round(k*b2/n), c2 = round(k*a2/n).
//
// The identity holds for any integers c1, c2; the rounding only keeps the
// halves short. Each quotient is the top of one 256 x 256-bit product with
// its multiplier (the exact rounding, or in about one case in 2^66 its
// neighbour) and the halves, which fit 129 bits with their sign, are
// computed in 192-bit two's complement.
//
// A k below 2^128 is returned as (k, 0), the lattice point c1 = c2 = 0: it is
// already a half. Rounding would give it a ~127-bit and a ~64-bit half, two
// entries where one does, and a challenge coefficient is always this short.
func glvDecompose(k *[4]uint64) (k1, k2 [2]uint64, neg1, neg2 bool) {
	if k[2]|k[3] == 0 {
		return [2]uint64{k[0], k[1]}, [2]uint64{}, false, false
	}
	c1, c2 := mulRoundShift(k, &glvMulB2), mulRoundShift(k, &glvMulA2)
	a2 := [2]uint64{glvA2Limb}
	h1 := sub3(sub3([3]uint64{k[0], k[1], k[2]}, mul3(&c1, &glvA1Limbs)), mul3(&c2, &a2))
	h2 := sub3(mul3(&c1, &a2), mul3(&c2, &glvB2Limbs))
	k1, neg1 = abs3(h1)
	k2, neg2 = abs3(h2)
	return k1, k2, neg1, neg2
}

// mulRoundShift returns round(k * m / 2^glvMulShift) mod 2^128: the whole
// quotient for glvDecompose, the low limbs of it for gtSplitDecompose.
func mulRoundShift(k, m *[4]uint64) [2]uint64 {
	var prod [8]uint64
	for i, ki := range k {
		var carry uint64
		for j, mj := range m {
			hi, lo := bits.Mul64(ki, mj)
			var c uint64
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			prod[i+j], c = bits.Add64(prod[i+j], lo, 0)
			carry = hi + c
		}
		prod[i+4] = carry
	}
	const limb = glvMulShift / 64
	lo, c := bits.Add64(prod[limb], prod[limb-1]>>63, 0)
	return [2]uint64{lo, prod[limb+1] + c}
}

// mul3 returns a*b mod 2^192.
func mul3(a, b *[2]uint64) [3]uint64 {
	h00, l00 := bits.Mul64(a[0], b[0])
	h01, l01 := bits.Mul64(a[0], b[1])
	h10, l10 := bits.Mul64(a[1], b[0])
	r1, c1 := bits.Add64(h00, l01, 0)
	r1, c2 := bits.Add64(r1, l10, 0)
	return [3]uint64{l00, r1, a[1]*b[1] + h01 + h10 + c1 + c2}
}

// sub3 returns a - b mod 2^192.
func sub3(a, b [3]uint64) [3]uint64 {
	var br uint64
	a[0], br = bits.Sub64(a[0], b[0], 0)
	a[1], br = bits.Sub64(a[1], b[1], br)
	a[2], _ = bits.Sub64(a[2], b[2], br)
	return a
}

// abs3 splits a 192-bit two's complement value of magnitude below 2^128
// into magnitude and sign.
func abs3(v [3]uint64) (mag [2]uint64, neg bool) {
	if neg = v[2]>>63 != 0; neg {
		v = sub3([3]uint64{}, v)
	}
	return [2]uint64{v[0], v[1]}, neg
}

// glvWindow is the digit width of MulGLV's signed windows.
const glvWindow = 4

// MulGLV sets c = (k mod n)*a for a in G1: one ladder of ~128 doublings
// shared by the signed glvWindow-bit digits of k1 against a table of
// a..8a and of k2 against the same table under phi, ~60 additions in all,
// where Mul pays 254 doublings and ~127 additions. Because k is reduced
// mod n, MulGLV cannot witness that a has order n; Mul does.
func (c *curvePoint) MulGLV(a *curvePoint, k *big.Int) *curvePoint {
	ks := scalarFromBig(k)
	k1, k2, neg1, neg2 := glvDecompose(&ks)
	var table, phi [1 << (glvWindow - 1)]curvePoint // [d-1]: d*a, d*phi(a)
	table[0] = *a
	for d := 1; d < len(table); d++ {
		if d&1 == 1 {
			table[d].Double(&table[d/2])
		} else {
			table[d].Add(&table[d-1], a)
		}
	}
	for d := range table {
		phi[d] = table[d]
		gfpMul(&phi[d].x, &phi[d].x, &glvBeta)
	}

	var acc, neg curvePoint
	acc.SetInfinity()
	// The halves are magnitudes; their signs go onto the digits.
	addDigit := func(tbl *[1 << (glvWindow - 1)]curvePoint, d int, negate bool) {
		if negate {
			d = -d
		}
		switch {
		case d > 0:
			acc.Add(&acc, &tbl[d-1])
		case d < 0:
			acc.Add(&acc, neg.Neg(&tbl[-d-1]))
		}
	}
	for w := (max(limbsBitLen(k1[:]), limbsBitLen(k2[:]))+glvWindow)/glvWindow - 1; w >= 0; w-- {
		for i := 0; i < glvWindow; i++ {
			acc.Double(&acc)
		}
		addDigit(&table, boothDigit(k1[:], w, glvWindow), neg1)
		addDigit(&phi, boothDigit(k2[:], w, glvWindow), neg2)
	}
	return c.Set(&acc)
}
