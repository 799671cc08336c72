// Package bn256 implements the 254-bit Barreto-Naehrig pairing-friendly
// elliptic curve known as alt_bn128 (the curve exposed by the Ethereum
// pairing precompiles and referenced by the paper as its BN256 instantiation),
// together with the optimal ate pairing e: G1 x G2 -> GT.
//
// The implementation is self-contained (standard library only). All derived
// constants -- the field prime, the group order, Frobenius coefficients,
// twist cofactor, the final-exponentiation hard part, and the Montgomery
// parameters of the base field -- are computed at package initialization
// from the single BN parameter u and validated by consistency checks, so a
// transcription error in any constant fails fast at startup instead of
// producing subtly wrong pairings.
//
// Base-field elements are fixed [4]uint64 limbs in Montgomery form (gfp.go),
// with Karatsuba multiplication through the Fp2/Fp6/Fp12 tower; scalars and
// exponents are big.Int in every exported signature and limbs from there on
// (scalar.go). The Miller loop keeps its running point in homogeneous
// projective coordinates and group operations use Jacobian coordinates, so
// neither inverts inside a loop. G1 scalar multiplication splits its scalar
// along the curve's endomorphism (x, y) -> (beta*x, y) and runs one
// half-length ladder (glv.go); the multi-scalar multiplication splits the
// same way and sums its buckets in affine coordinates, one inversion per
// round of additions (multiexp.go); GT exponentiation splits its exponent
// four ways along the p-power Frobenius (gtsplit.go). Correctness is pinned three
// ways: differential tests of the limb arithmetic against math/big, field
// axioms and Frobenius identities at every tower level, and golden marshal
// vectors frozen from the original big.Int implementation (wire formats are
// byte-identical). See the package tests for the bilinearity,
// non-degeneracy and marshaling properties that pin the implementation
// down.
package bn256

import "math/big"

var (
	// u is the BN parameter. Every other constant derives from it:
	//	p = 36u^4 + 36u^3 + 24u^2 + 6u + 1
	//	n = 36u^4 + 36u^3 + 18u^2 + 6u + 1
	u = bigFromBase10("4965661367192848881")

	// pBig is the prime of the base field Fp.
	pBig *big.Int

	// Order is the order n of G1, G2 and GT (a prime).
	Order *big.Int

	// loopCount is 6u+2, the Miller loop length of the optimal ate pairing.
	loopCount *big.Int

	// twistCofactor is 2p - n, the cofactor of the order-n subgroup of the
	// sextic twist E'(Fp2).
	twistCofactor *big.Int

	// hardExponent is (p^4 - p^2 + 1)/n, the hard part of the final
	// exponentiation.
	hardExponent *big.Int

	// pPlus1Over4 is the exponent used for square roots in Fp (p = 3 mod 4).
	pPlus1Over4 *big.Int

	// curveB is the constant of E: y^2 = x^3 + 3 over Fp.
	curveB = big.NewInt(3)

	// xi is the sextic non-residue i+9 in Fp2 defining the tower
	// Fp6 = Fp2[tau]/(tau^3 - xi) and Fp12 = Fp6[omega]/(omega^2 - tau).
	xi *gfP2

	// twistB is 3/xi, the constant of the twist E': y^2 = x^3 + 3/xi.
	twistB *gfP2

	// Frobenius coefficients, all derived from xi at init.
	xiToPMinus1Over6         *gfP2 // xi^((p-1)/6)
	xiToPMinus1Over3         *gfP2 // xi^((p-1)/3)
	xiToPMinus1Over2         *gfP2 // xi^((p-1)/2)
	xiTo2PMinus2Over3        *gfP2 // xi^(2(p-1)/3)
	xiToPSquaredMinus1Over6  gfP   // xi^((p^2-1)/6), lies in Fp
	xiToPSquaredMinus1Over3  gfP   // xi^((p^2-1)/3), a primitive cube root of unity in Fp
	xiTo2PSquaredMinus2Over3 gfP   // its square, also in Fp
)

func bigFromBase10(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bn256: invalid base-10 constant: " + s)
	}
	return n
}

// polyInU evaluates c[0] + c[1]*u + c[2]*u^2 + ... at the BN parameter.
func polyInU(c ...int64) *big.Int {
	v := new(big.Int)
	for i := len(c) - 1; i >= 0; i-- {
		v.Mul(v, u).Add(v, big.NewInt(c[i]))
	}
	return v
}

func init() {
	pBig = polyInU(1, 6, 24, 36, 36)
	Order = polyInU(1, 6, 18, 36, 36)

	if pBig.BitLen() != 254 || Order.BitLen() != 254 {
		panic("bn256: derived p or n has unexpected bit length")
	}
	if !pBig.ProbablyPrime(32) || !Order.ProbablyPrime(32) {
		panic("bn256: derived p or n is not prime")
	}
	if new(big.Int).Mod(pBig, big.NewInt(4)).Int64() != 3 {
		panic("bn256: p is not 3 mod 4")
	}

	pPlus1Over4 = new(big.Int).Add(pBig, big.NewInt(1))
	pPlus1Over4.Rsh(pPlus1Over4, 2)

	// The Montgomery-form base field underlies every derived constant
	// below, so its own constants come first.
	initGFp()
	initScalar()

	loopCount = new(big.Int).Mul(u, big.NewInt(6))
	loopCount.Add(loopCount, big.NewInt(2))

	twistCofactor = new(big.Int).Lsh(pBig, 1)
	twistCofactor.Sub(twistCofactor, Order)

	// hardExponent = (p^4 - p^2 + 1)/n, which must divide exactly.
	p2 := new(big.Int).Mul(pBig, pBig)
	p4 := new(big.Int).Mul(p2, p2)
	h := new(big.Int).Sub(p4, p2)
	h.Add(h, big.NewInt(1))
	var rem big.Int
	hardExponent, _ = new(big.Int).QuoRem(h, Order, &rem)
	if rem.Sign() != 0 {
		panic("bn256: (p^4 - p^2 + 1) not divisible by n")
	}

	// The GT subgroup check (gfP12.hasOrderN) tests a^m = 1 for
	// m = (u+1) + u*p + u*p^2 - 2u*p^3 on the cyclotomic subgroup, whose order
	// is h: that is a^n = 1 exactly when n divides m and gcd(m, h) = n.
	p3 := new(big.Int).Mul(p2, pBig)
	m := new(big.Int).Add(pBig, p2)
	m.Sub(m, p3.Lsh(p3, 1))
	m.Add(m, big.NewInt(1))
	m.Mul(m, u)
	m.Add(m, big.NewInt(1))
	if new(big.Int).Mod(m, Order).Sign() != 0 {
		panic("bn256: (u+1) + u*p + u*p^2 - 2u*p^3 not divisible by n")
	}
	if new(big.Int).GCD(nil, nil, m.Abs(m), h).Cmp(Order) != 0 {
		panic("bn256: gcd((u+1) + u*p + u*p^2 - 2u*p^3, p^4 - p^2 + 1) != n")
	}

	xi = newGFp2().SetInt64s(1, 9)
	twistB = newGFp2().Invert(xi)
	twistB.MulScalar(twistB, &gfpCurveB)

	// Frobenius coefficients.
	pMinus1 := new(big.Int).Sub(pBig, big.NewInt(1))
	xiToPMinus1Over6 = newGFp2().Exp(xi, new(big.Int).Div(pMinus1, big.NewInt(6)))
	xiToPMinus1Over3 = newGFp2().Exp(xi, new(big.Int).Div(pMinus1, big.NewInt(3)))
	xiToPMinus1Over2 = newGFp2().Exp(xi, new(big.Int).Div(pMinus1, big.NewInt(2)))
	xiTo2PMinus2Over3 = newGFp2().Square(xiToPMinus1Over3)

	p2Minus1 := new(big.Int).Sub(p2, big.NewInt(1))
	t := newGFp2().Exp(xi, new(big.Int).Div(p2Minus1, big.NewInt(6)))
	if !t.x.IsZero() {
		panic("bn256: xi^((p^2-1)/6) not in Fp")
	}
	xiToPSquaredMinus1Over6.Set(&t.y)

	t = newGFp2().Exp(xi, new(big.Int).Div(p2Minus1, big.NewInt(3)))
	if !t.x.IsZero() {
		panic("bn256: xi^((p^2-1)/3) not in Fp")
	}
	xiToPSquaredMinus1Over3.Set(&t.y)
	gfpMul(&xiTo2PSquaredMinus2Over3, &xiToPSquaredMinus1Over3, &xiToPSquaredMinus1Over3)

	// xi^((p^2-1)/2) must be -1 (xi is a quadratic non-residue in Fp2);
	// the optimal-ate adjustment step relies on it.
	t = newGFp2().Exp(xi, new(big.Int).Div(p2Minus1, big.NewInt(2)))
	var minusOne gfP
	gfpNeg(&minusOne, &rOne)
	if !t.x.IsZero() || !t.y.Equal(&minusOne) {
		panic("bn256: xi^((p^2-1)/2) != -1")
	}

	g1Identity = newCurvePoint().SetInfinity()
	g2Identity = newTwistPoint().SetInfinity()
	gtIdentity = newGFp12().SetOne()

	initGenerators()
	initGLV()
	initGTSplit()
}
