package bn256

import "math/big"

// gfP2 implements the quadratic extension Fp2 = Fp[i]/(i^2 + 1).
// An element is x*i + y; both coefficients are Montgomery-form gfP values
// held inline, so a gfP2 is 64 bytes with no indirection.
type gfP2 struct {
	x, y gfP
}

func newGFp2() *gfP2 { return &gfP2{} }

func (e *gfP2) String() string {
	return "(" + e.x.String() + "i + " + e.y.String() + ")"
}

func (e *gfP2) Set(a *gfP2) *gfP2 {
	*e = *a
	return e
}

func (e *gfP2) SetZero() *gfP2 {
	*e = gfP2{}
	return e
}

func (e *gfP2) SetOne() *gfP2 {
	e.x.SetZero()
	e.y.SetOne()
	return e
}

// SetInt64s sets e from small integer coefficients.
func (e *gfP2) SetInt64s(x, y int64) *gfP2 {
	e.x.SetInt64(x)
	e.y.SetInt64(y)
	return e
}

func (e *gfP2) IsZero() bool { return e.x.IsZero() && e.y.IsZero() }

func (e *gfP2) IsOne() bool { return e.x.IsZero() && e.y.IsOne() }

func (e *gfP2) Equal(a *gfP2) bool { return *e == *a }

// Conjugate sets e to the Fp2 conjugate of a: x*i + y -> -x*i + y.
// This is also the p-power Frobenius on Fp2.
func (e *gfP2) Conjugate(a *gfP2) *gfP2 {
	e.y.Set(&a.y)
	gfpNeg(&e.x, &a.x)
	return e
}

func (e *gfP2) Neg(a *gfP2) *gfP2 {
	gfpNeg(&e.x, &a.x)
	gfpNeg(&e.y, &a.y)
	return e
}

func (e *gfP2) Add(a, b *gfP2) *gfP2 {
	gfpAdd(&e.x, &a.x, &b.x)
	gfpAdd(&e.y, &a.y, &b.y)
	return e
}

func (e *gfP2) Sub(a, b *gfP2) *gfP2 {
	gfpSub(&e.x, &a.x, &b.x)
	gfpSub(&e.y, &a.y, &b.y)
	return e
}

func (e *gfP2) Double(a *gfP2) *gfP2 {
	gfpDouble(&e.x, &a.x)
	gfpDouble(&e.y, &a.y)
	return e
}

// Mul sets e = a*b:
//
//	(a.x*i + a.y)(b.x*i + b.y) = (a.x*b.y + a.y*b.x)i + (a.y*b.y - a.x*b.x),
//
// computed with Karatsuba in three base-field multiplications:
// the cross term a.x*b.y + a.y*b.x = (a.x+a.y)(b.x+b.y) - a.x*b.x - a.y*b.y.
func (e *gfP2) Mul(a, b *gfP2) *gfP2 {
	var v0, v1, tx, ty gfP
	gfpMul(&v0, &a.x, &b.x)
	gfpMul(&v1, &a.y, &b.y)

	gfpAdd(&tx, &a.x, &a.y)
	gfpAdd(&ty, &b.x, &b.y)
	gfpMul(&tx, &tx, &ty)
	gfpSub(&tx, &tx, &v0)
	gfpSub(&tx, &tx, &v1)

	gfpSub(&ty, &v1, &v0)

	e.x = tx
	e.y = ty
	return e
}

// MulScalar sets e = a*b for a base-field scalar b.
func (e *gfP2) MulScalar(a *gfP2, b *gfP) *gfP2 {
	gfpMul(&e.x, &a.x, b)
	gfpMul(&e.y, &a.y, b)
	return e
}

// MulXi sets e = a*xi where xi = i+9.
func (e *gfP2) MulXi(a *gfP2) *gfP2 {
	// (x*i + y)(i + 9) = (9x + y)i + (9y - x)
	var tx, ty gfP
	gfpDouble(&tx, &a.x)
	gfpDouble(&tx, &tx)
	gfpDouble(&tx, &tx)
	gfpAdd(&tx, &tx, &a.x)
	gfpAdd(&tx, &tx, &a.y)

	gfpDouble(&ty, &a.y)
	gfpDouble(&ty, &ty)
	gfpDouble(&ty, &ty)
	gfpAdd(&ty, &ty, &a.y)
	gfpSub(&ty, &ty, &a.x)

	e.x = tx
	e.y = ty
	return e
}

// Square sets e = a^2 = 2*x*y*i + (y+x)(y-x).
func (e *gfP2) Square(a *gfP2) *gfP2 {
	var t1, t2, tx gfP
	gfpSub(&t1, &a.y, &a.x)
	gfpAdd(&t2, &a.y, &a.x)
	gfpMul(&t1, &t1, &t2)

	gfpMul(&tx, &a.x, &a.y)
	gfpDouble(&tx, &tx)

	e.x = tx
	e.y = t1
	return e
}

// Invert sets e = 1/a. It panics if a is zero (division by zero in a
// cryptographic computation is a programming error, not an input error).
func (e *gfP2) Invert(a *gfP2) *gfP2 {
	// 1/(x*i + y) = (-x*i + y)/(x^2 + y^2)
	var t, t2 gfP
	gfpMul(&t, &a.y, &a.y)
	gfpMul(&t2, &a.x, &a.x)
	gfpAdd(&t, &t, &t2)

	var inv gfP
	inv.Invert(&t)

	gfpNeg(&e.x, &a.x)
	gfpMul(&e.x, &e.x, &inv)
	gfpMul(&e.y, &a.y, &inv)
	return e
}

// Exp sets e = a^k by square-and-multiply.
func (e *gfP2) Exp(a *gfP2, k *big.Int) *gfP2 {
	sum := newGFp2().SetOne()
	t := newGFp2()
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

var bigOne = big.NewInt(1)
