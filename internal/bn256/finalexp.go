package bn256

// This file implements the optimized final-exponentiation hard part using
// the BN addition chain of Devegili, Scott and Dahab ("Implementing
// cryptographic pairings over Barreto-Naehrig curves"), built from three
// exponentiations by the curve parameter u plus Frobenius maps. Every value
// in the chain lies in the cyclotomic subgroup, so the exponentiations and
// squarings are the cyclotomic ones.
//
// Correctness does not rest on transcription: the package tests verify that
// finalExponentiationFast agrees with the naive square-and-multiply by the
// exact exponent (p^4-p^2+1)/n on random Miller-loop outputs, and the
// default pairing path uses the fast version only because that equivalence
// holds. BenchmarkAblationFinalExp quantifies the speedup.

// hardPartFast raises t (already in the cyclotomic subgroup, i.e. after the
// easy part) to (p^4 - p^2 + 1)/n.
func hardPartFast(t1 *gfP12) *gfP12 {
	fp := newGFp12().Frobenius(t1)
	fp2 := newGFp12().FrobeniusP2(t1)
	fp3 := newGFp12().Frobenius(fp2)

	fu := newGFp12().CyclotomicExp(t1, u)
	fu2 := newGFp12().CyclotomicExp(fu, u)
	fu3 := newGFp12().CyclotomicExp(fu2, u)

	y3 := newGFp12().Frobenius(fu)
	fu2p := newGFp12().Frobenius(fu2)
	fu3p := newGFp12().Frobenius(fu3)
	y2 := newGFp12().FrobeniusP2(fu2)

	y0 := newGFp12().Mul(fp, fp2)
	y0.Mul(y0, fp3)

	y1 := newGFp12().Conjugate(t1)
	y5 := newGFp12().Conjugate(fu2)
	y3.Conjugate(y3)
	y4 := newGFp12().Mul(fu, fu2p)
	y4.Conjugate(y4)

	y6 := newGFp12().Mul(fu3, fu3p)
	y6.Conjugate(y6)

	t0 := newGFp12().CyclotomicSquare(y6)
	t0.Mul(t0, y4)
	t0.Mul(t0, y5)
	out := newGFp12().Mul(y3, y5)
	out.Mul(out, t0)
	t0.Mul(t0, y2)
	out.CyclotomicSquare(out)
	out.Mul(out, t0)
	out.CyclotomicSquare(out)
	t0.Mul(out, y1)
	out.Mul(out, y0)
	t0.CyclotomicSquare(t0)
	t0.Mul(t0, out)
	return t0
}

// finalExponentiationFast is the production final exponentiation: the same
// easy part as finalExponentiation, with the hard part replaced by the
// u-chain.
func finalExponentiationFast(f *gfP12) *gfP12 {
	t := newGFp12().Conjugate(f)
	inv := newGFp12().Invert(f)
	t.Mul(t, inv) // f^(p^6-1)

	t2 := newGFp12().FrobeniusP2(t)
	t.Mul(t, t2) // ^(p^2+1)

	return hardPartFast(t)
}
