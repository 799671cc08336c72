package bn256

import "math/big"

// Galbraith-Scott exponentiation in GT ("Exponentiation in pairing-friendly
// groups using homomorphisms", Pairing 2008), the GT analogue of glv.go. The
// p-power Frobenius is a nearly free endomorphism of Fp12, and on the order-n
// subgroup it is the power map a -> a^lambda for lambda = p mod n = 6u^2, a
// root of x^4 - x^2 + 1 mod n. Writing
//
//	k = k0 + k1*lambda + k2*lambda^2 + k3*lambda^3 (mod n)
//
// with every part below 2^gtSplitBits turns a^k into the product of four short
// powers of a, a^p, a^(p^2), a^(p^3): one chain of ~66 cyclotomic squarings
// instead of 254 (splitExp). It is only right where a^p = a^lambda, i.e. for a
// of order n. The decomposition runs on limbs (gtSplitDecompose); lambda, the
// lattice and the rounding multipliers derive from u and are checked in
// initGTSplit.

var (
	// gtLambda is p mod n = 6u^2.
	gtLambda *big.Int

	// gtSplitBasis is a short (LLL-reduced) basis of the lattice
	// {v in Z^4 : sum_j v[j]*lambda^j = 0 mod n}, one vector per row, each
	// entry in 128-bit two's complement. With g the integer vector such that
	// g*basis = (n, 0, 0, 0), k*g/n are the rational coordinates of
	// (k, 0, 0, 0) in the basis, and gtSplitMul[i] = round(2^320 * g[i] / n)
	// stands in for the division as in glvDecompose.
	gtSplitBasis [4][4][2]uint64
	gtSplitMul   [4][4]uint64
)

// gtSplitBits bounds the parts of gtSplitDecompose: each is below
// 2^gtSplitBits in magnitude.
const gtSplitBits = 65

func initGTSplit() {
	poly := polyInU
	gtLambda = poly(0, 0, 6)
	if new(big.Int).Mod(P, Order).Cmp(gtLambda) != 0 {
		panic("bn256: p mod n != 6u^2")
	}
	basis := [4][4]*big.Int{
		{poly(1, 2), poly(), poly(0, 2), poly(1)},
		{poly(0, 2), poly(1, 1), poly(0, -1), poly(0, 1)},
		{poly(1, 1), poly(0, 1), poly(0, 1), poly(0, -2)},
		{poly(1, 2), poly(0, -1), poly(-1, -1), poly(0, -1)},
	}
	g := [4]*big.Int{poly(0, 2, 6, 6), poly(0, -1, 0, 6), poly(1, 2), poly(0, 1, 6, 6)}

	t, twoTo128 := new(big.Int), new(big.Int).Lsh(big.NewInt(1), 128)
	for i, row := range basis {
		at := new(big.Int) // the row as a polynomial, at lambda
		for j := len(row) - 1; j >= 0; j-- {
			at.Mul(at, gtLambda).Add(at, row[j])
			low := limbsFromBig(t.Mod(row[j], twoTo128))
			gtSplitBasis[i][j] = [2]uint64{low[0], low[1]}
		}
		if at.Mod(at, Order).Sign() != 0 {
			panic("bn256: GT split basis vector not in the lattice")
		}
		gtSplitMul[i] = roundingMultiplier(g[i])
	}
	// gtSplitDecompose's quotients are the exact roundings or their
	// neighbours (see initGLV), so a part is at most one of each basis
	// vector's entries in its column, not half of each.
	for j := range basis {
		dot, length := new(big.Int), new(big.Int)
		for i := range basis {
			dot.Add(dot, t.Mul(g[i], basis[i][j]))
			length.Add(length, t.Abs(basis[i][j]))
		}
		if j == 0 {
			dot.Sub(dot, Order)
		}
		if dot.Sign() != 0 {
			panic("bn256: g * basis != (n, 0, 0, 0) for the GT split")
		}
		if length.BitLen() > gtSplitBits {
			panic("bn256: GT split basis too long for its parts")
		}
	}
}

// gtSplitDecompose returns the magnitudes and signs of k0..k3 with
// sum_j kj*lambda^j = k (mod n) and |kj| < 2^gtSplitBits, for k in [0, n), by
// Babai rounding as in glvDecompose:
//
//	(k, 0, 0, 0) - sum_i c[i]*basis[i],  c[i] = round(k*g[i]/n).
//
// The quotients run to 190 bits, but the parts fit 66 with their sign, so
// everything is computed mod 2^128 -- the low limbs of each quotient are all
// that matter -- and sign-extended for abs3.
func gtSplitDecompose(k *[4]uint64) (parts [4][2]uint64, neg [4]bool) {
	var c [4][2]uint64
	for i := range c {
		c[i] = mulRoundShift(k, &gtSplitMul[i])
	}
	for j := range parts {
		var h [3]uint64
		if j == 0 {
			h = [3]uint64{k[0], k[1]}
		}
		for i := range c {
			h = sub3(h, mul3(&c[i], &gtSplitBasis[i][j]))
		}
		h[2] = -(h[1] >> 63)
		parts[j], neg[j] = abs3(h)
	}
	return parts, neg
}

// splitExp sets e = a^k for a of order n and k in [0, n): the four parts of k
// go through cyclotomicMultiExp against the table of a and its images under
// a -> a^p, a^(p^2), a^(p^3) (24 Frobenius maps, about seven multiplications'
// worth, where three more tables would cost twelve squarings and nine
// multiplications). A negative part conjugates its table: inversion in the
// cyclotomic subgroup.
func (e *gfP12) splitExp(a *gfP12, k *[4]uint64) *gfP12 {
	parts, neg := gtSplitDecompose(k)
	var tables [4]cycloTable
	tables[0].fill(a)
	for d := range tables[0] {
		tables[1][d].Frobenius(&tables[0][d])
		tables[2][d].FrobeniusP2(&tables[0][d])
		tables[3][d].FrobeniusP2(&tables[1][d])
	}
	var ks [4][4]uint64
	for j := range ks {
		ks[j] = [4]uint64{parts[j][0], parts[j][1]}
		if neg[j] {
			for d := range tables[j] {
				tables[j][d].Conjugate(&tables[j][d])
			}
		}
	}
	return e.cyclotomicMultiExp(ks[:], tables[:])
}
