package bn256

import "math/big"

// Gallant-Lambert-Vanstone scalar multiplication on G1. E: y^2 = x^3 + 3 has
// the endomorphism phi(x, y) = (beta*x, y) for beta a primitive cube root of
// unity in Fp, and on the order-n group it acts as multiplication by lambda,
// a cube root of unity mod n. Writing k = k1 + k2*lambda (mod n) with both
// halves below 2^128 turns [k]P into [k1]P + [k2]phi(P), one joint ladder of
// half the length. lambda, beta and the decomposition lattice derive from u
// and are checked at init, like every constant of the package.

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

	halfOrder *big.Int // n >> 1, for rounding to nearest
)

func initGLV() {
	u2 := new(big.Int).Mul(u, u)
	glvLambda = new(big.Int).Mul(u2, u2)
	glvLambda.Mul(glvLambda, big.NewInt(36)).Sub(glvLambda, big.NewInt(1))
	halfOrder = new(big.Int).Rsh(Order, 1)

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

// glvDecompose returns k1, k2 with k1 + k2*lambda = k (mod n) and
// |k1|, |k2| < 2^127, by Babai rounding: subtract from (k, 0) the lattice
// vector nearest to it. What remains is at most half of each basis vector,
// about 3u^2 < 2^126 per coordinate, for any k.
func glvDecompose(k *big.Int) (k1, k2 *big.Int) {
	k1 = new(big.Int).Mod(k, Order)
	// (k, 0) = (k*b2/n)*v1 + (k*a2/n)*v2 over the rationals.
	c1 := new(big.Int).Mul(k1, glvB2)
	c1.Add(c1, halfOrder).Div(c1, Order)
	c2 := new(big.Int).Mul(k1, glvA2)
	c2.Add(c2, halfOrder).Div(c2, Order)

	t := new(big.Int)
	k1.Sub(k1, t.Mul(c1, glvA1)).Sub(k1, t.Mul(c2, glvA2))
	k2 = new(big.Int).Mul(c1, glvA2)
	k2.Sub(k2, t.Mul(c2, glvB2))
	return k1, k2
}

// glvWindow is the digit width of MulGLV's signed windows.
const glvWindow = 4

// MulGLV sets c = (k mod n)*a for a in G1: one ladder of ~128 doublings
// shared by the signed glvWindow-bit digits of k1 against a table of
// a..8a and of k2 against the same table under phi, ~60 additions in all,
// where Mul pays 254 doublings and ~127 additions. Because k is reduced
// mod n, MulGLV cannot witness that a has order n; Mul does.
func (c *curvePoint) MulGLV(a *curvePoint, k *big.Int) *curvePoint {
	k1, k2 := glvDecompose(k)
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

	w1, w2 := k1.Bits(), k2.Bits() // magnitudes; the signs go onto the digits
	var acc, neg curvePoint
	acc.SetInfinity()
	addDigit := func(tbl *[1 << (glvWindow - 1)]curvePoint, d int) {
		switch {
		case d > 0:
			acc.Add(&acc, &tbl[d-1])
		case d < 0:
			acc.Add(&acc, neg.Neg(&tbl[-d-1]))
		}
	}
	for w := (max(k1.BitLen(), k2.BitLen())+glvWindow)/glvWindow - 1; w >= 0; w-- {
		for i := 0; i < glvWindow; i++ {
			acc.Double(&acc)
		}
		addDigit(&table, k1.Sign()*boothDigit(w1, w, glvWindow))
		addDigit(&phi, k2.Sign()*boothDigit(w2, w, glvWindow))
	}
	return c.Set(&acc)
}
