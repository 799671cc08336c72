package bn256

import "math/big"

// gfP12 implements the quadratic extension Fp12 = Fp6[omega]/(omega^2 - tau).
// An element is x*omega + y, with the gfP6 coefficients held inline: a gfP12
// is 12 contiguous gfP limb groups with no pointer chasing.
type gfP12 struct {
	x, y gfP6
}

func newGFp12() *gfP12 { return &gfP12{} }

func (e *gfP12) String() string {
	return "(" + e.x.String() + "omega + " + e.y.String() + ")"
}

func (e *gfP12) Set(a *gfP12) *gfP12 {
	*e = *a
	return e
}

func (e *gfP12) SetZero() *gfP12 {
	*e = gfP12{}
	return e
}

func (e *gfP12) SetOne() *gfP12 {
	e.x.SetZero()
	e.y.SetOne()
	return e
}

func (e *gfP12) IsZero() bool { return e.x.IsZero() && e.y.IsZero() }

func (e *gfP12) IsOne() bool { return e.x.IsZero() && e.y.IsOne() }

func (e *gfP12) Equal(a *gfP12) bool { return *e == *a }

// Conjugate sets e to the conjugate of a over Fp6, which equals a^(p^6).
func (e *gfP12) Conjugate(a *gfP12) *gfP12 {
	e.x.Neg(&a.x)
	e.y.Set(&a.y)
	return e
}

// Frobenius sets e = a^p. omega^(p-1) = tau^((p-1)/2) = xi^((p-1)/6).
func (e *gfP12) Frobenius(a *gfP12) *gfP12 {
	e.x.Frobenius(&a.x)
	e.y.Frobenius(&a.y)
	e.x.MulGFP2(&e.x, xiToPMinus1Over6)
	return e
}

// FrobeniusP2 sets e = a^(p^2); the omega coefficient is scaled by
// xi^((p^2-1)/6), which lies in Fp.
func (e *gfP12) FrobeniusP2(a *gfP12) *gfP12 {
	e.x.FrobeniusP2(&a.x)
	e.y.FrobeniusP2(&a.y)
	e.x.MulScalar(&e.x, &xiToPSquaredMinus1Over6)
	return e
}

// Mul sets e = a*b with omega^2 = tau:
//
//	(ax*w + ay)(bx*w + by) = (ax*by + ay*bx)w + (ay*by + tau*ax*bx),
//
// with Karatsuba on the cross term: three gfP6 multiplications.
func (e *gfP12) Mul(a, b *gfP12) *gfP12 {
	var v0, v1, tx, ty gfP6
	v0.Mul(&a.x, &b.x)
	v1.Mul(&a.y, &b.y)

	tx.Add(&a.x, &a.y)
	ty.Add(&b.x, &b.y)
	tx.Mul(&tx, &ty)
	tx.Sub(&tx, &v0)
	tx.Sub(&tx, &v1)

	ty.MulTau(&v0)
	ty.Add(&ty, &v1)

	e.x = tx
	e.y = ty
	return e
}

// Square sets e = a^2 using the complex-squaring identity
//
//	(x*w + y)^2 = (2xy)w + (y^2 + tau*x^2),
//	y^2 + tau*x^2 = (x + y)(y + tau*x) - xy - tau*(xy),
//
// two gfP6 multiplications instead of three.
func (e *gfP12) Square(a *gfP12) *gfP12 {
	var v0, t, ty gfP6
	v0.Mul(&a.x, &a.y)

	t.MulTau(&a.x)
	t.Add(&t, &a.y)
	ty.Add(&a.x, &a.y)
	ty.Mul(&ty, &t)
	ty.Sub(&ty, &v0)
	t.MulTau(&v0)
	ty.Sub(&ty, &t)

	e.y = ty
	e.x.Double(&v0)
	return e
}

// Invert sets e = 1/a = (-ax*w + ay) / (ay^2 - tau*ax^2).
func (e *gfP12) Invert(a *gfP12) *gfP12 {
	var t1, t2 gfP6
	t1.Square(&a.x)
	t1.MulTau(&t1)
	t2.Square(&a.y)
	t2.Sub(&t2, &t1)
	t2.Invert(&t2)

	e.x.Neg(&a.x)
	e.x.Mul(&e.x, &t2)
	e.y.Mul(&a.y, &t2)
	return e
}

// Exp sets e = a^k by square-and-multiply. It is the reference ladder, right
// for every a in Fp12; values known to lie in the cyclotomic subgroup take
// CyclotomicExp.
func (e *gfP12) Exp(a *gfP12, k *big.Int) *gfP12 {
	sum := newGFp12().SetOne()
	t := newGFp12()
	for i := k.BitLen() - 1; i >= 0; i-- {
		t.Square(sum)
		if k.Bit(i) != 0 {
			sum.Mul(t, a)
		} else {
			sum.Set(t)
		}
	}
	return e.Set(sum)
}

// inCyclotomic reports whether a lies in the cyclotomic subgroup of Fp12*,
// the elements with a^(p^4-p^2+1) = 1, tested as a^(p^4) * a == a^(p^2).
// Everything past the easy part of the final exponentiation is in it; a raw
// Miller loop value is not.
func (a *gfP12) inCyclotomic() bool {
	var p2, p4 gfP12
	p2.FrobeniusP2(a)
	p4.FrobeniusP2(&p2)
	p4.Mul(&p4, a)
	return !a.IsZero() && p4.Equal(&p2)
}

// hasOrderN reports whether a^n = 1, i.e. a is in GT: a must be in the
// cyclotomic subgroup (n divides p^4-p^2+1) and there, with t = a^u,
//
//	a * t * t^p * t^(p^2) == (t^2)^(p^3)
//
// holds exactly when a^n = 1, because (u+1) + u*p + u*p^2 - 2u*p^3 is a
// multiple of n whose gcd with the subgroup's order p^4-p^2+1 is n (init
// asserts both; the test is that of Dai, Lin, Zhao and Zhou, ePrint 2022/348).
// One 63-bit exponentiation and four Frobenius maps instead of a 254-bit
// exponentiation. That a^u is and stays CyclotomicExp: splitExp is only right
// for an a of order n, which is the question being asked here.
func (a *gfP12) hasOrderN() bool {
	if !a.inCyclotomic() {
		return false
	}
	var t, lhs, rhs gfP12
	t.CyclotomicExp(a, u)
	lhs.Mul(a, &t)
	lhs.Mul(&lhs, rhs.Frobenius(&t))
	lhs.Mul(&lhs, rhs.FrobeniusP2(&t))
	rhs.Frobenius(&rhs) // t^(p^3)
	return lhs.Equal(rhs.CyclotomicSquare(&rhs))
}

// CyclotomicSquare sets e = a^2 for a in the cyclotomic subgroup, by the
// Granger-Scott formulas. Over Fp4 = Fp2[s]/(s^2 - xi), s = omega^3, a is
// A + B*omega + C*omega^2 with A = (y.z, x.y), B = (x.z, y.x), C = (y.y, x.x),
// and
//
//	a^2 = (3A^2 - 2A') + (3s*C^2 + 2B')omega + (3B^2 - 2C')omega^2
//
// where ' conjugates over Fp2: three Fp4 squarings, 18 base-field
// multiplications against the 36 of Square. The result is meaningless for a
// outside the subgroup.
func (e *gfP12) CyclotomicSquare(a *gfP12) *gfP12 {
	var a0, a1, b0, b1, c0, c1 gfP2
	fp4Square(&a0, &a1, &a.y.z, &a.x.y)
	fp4Square(&b0, &b1, &a.x.z, &a.y.x)
	fp4Square(&c0, &c1, &a.y.y, &a.x.x)
	c1.MulXi(&c1)

	tripleMinusDouble(&e.y.z, &a0, &a.y.z)
	triplePlusDouble(&e.x.y, &a1, &a.x.y)
	triplePlusDouble(&e.x.z, &c1, &a.x.z)
	tripleMinusDouble(&e.y.x, &c0, &a.y.x)
	tripleMinusDouble(&e.y.y, &b0, &a.y.y)
	triplePlusDouble(&e.x.x, &b1, &a.x.x)
	return e
}

// fp4Square sets c0 + c1*s = (a + b*s)^2 = (a^2 + xi*b^2) + 2ab*s.
func fp4Square(c0, c1, a, b *gfP2) {
	var a2, b2 gfP2
	a2.Square(a)
	b2.Square(b)
	c1.Add(a, b)
	c1.Square(c1)
	c1.Sub(c1, &a2)
	c1.Sub(c1, &b2)
	c0.MulXi(&b2)
	c0.Add(c0, &a2)
}

// tripleMinusDouble sets e = 3t - 2a; e may alias a.
func tripleMinusDouble(e, t, a *gfP2) {
	e.Sub(t, a)
	e.Double(e)
	e.Add(e, t)
}

// triplePlusDouble sets e = 3t + 2a; e may alias a.
func triplePlusDouble(e, t, a *gfP2) {
	e.Add(t, a)
	e.Double(e)
	e.Add(e, t)
}

// cycloTable holds a, a^3, ..., a^15 for one base a: inversion in the
// cyclotomic subgroup is conjugation, so it serves every signed digit of
// nafRecode.
type cycloTable [nafOdd]gfP12

// fill sets table[j] = a^(2j+1): one cyclotomic squaring for a^2 and seven
// multiplications by it.
func (table *cycloTable) fill(a *gfP12) {
	var a2 gfP12
	a2.CyclotomicSquare(a)
	table[0] = *a
	for j := 1; j < len(table); j++ {
		table[j].Mul(&table[j-1], &a2)
	}
}

// CyclotomicExp sets e = a^k for a in the cyclotomic subgroup and
// 0 <= k < 2^256: the one-base call of cyclotomicMultiExp, where a 254-bit
// exponent costs ~254 cheap squarings and ~43 multiplications, plus the
// table's eight, against the 254 + ~127 of Exp; the final exponentiation's
// three powers by the 63-bit u take 63 and 12 each. It asks nothing more
// of a than the cyclotomic subgroup, so it serves the callers whose a is not
// (yet) known to have order n; for those that are, splitExp is a quarter of
// the squarings.
func (e *gfP12) CyclotomicExp(a *gfP12, k *big.Int) *gfP12 {
	var table [1]cycloTable
	table[0].fill(a)
	ks := [1][4]uint64{limbsFromBig(k)}
	return e.cyclotomicMultiExp(ks[:], table[:])
}

// cyclotomicMultiExp sets e = prod_i a_i^ks[i] for bases in the cyclotomic
// subgroup, given as their filled tables, on the exponents' nafRecode digits:
// one chain of cyclotomic squarings, as long as the longest exponent, serves
// every base, and a base costs its table and one multiplication per non-zero
// digit, one in nafWindow+1 on average.
func (e *gfP12) cyclotomicMultiExp(ks [][4]uint64, tables []cycloTable) *gfP12 {
	maxBits := 0
	for i := range ks {
		maxBits = max(maxBits, limbsBitLen(ks[i][:]))
	}
	// A row per exponent; the splitExp and CyclotomicExp calls fit the stack.
	row := maxBits + 1
	var buf [4 * (gtSplitBits + 1)]int8
	digits := buf[:]
	if len(ks)*row > len(buf) {
		digits = make([]int8, len(ks)*row)
	}
	top := 0
	for i := range ks {
		top = max(top, nafRecode(digits[i*row:][:row], ks[i][:]))
	}
	var acc, inv gfP12
	acc.SetOne()
	for pos := top - 1; pos >= 0; pos-- {
		if pos < top-1 {
			acc.CyclotomicSquare(&acc)
		}
		for i := range ks {
			switch d := digits[i*row+pos]; {
			case d > 0:
				acc.Mul(&acc, &tables[i][d>>1])
			case d < 0:
				acc.Mul(&acc, inv.Conjugate(&tables[i][-d>>1]))
			}
		}
	}
	return e.Set(&acc)
}
