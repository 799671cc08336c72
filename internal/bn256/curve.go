package bn256

import "math/big"

// curvePoint is a point on E: y^2 = x^3 + 3 over Fp in Jacobian coordinates
// (x, y, z); the affine point is (x/z^2, y/z^3), and z = 0 encodes the point
// at infinity. Coordinates are Montgomery-form gfP values held inline, so
// the group operations below are allocation-free.
type curvePoint struct {
	x, y, z gfP
}

func newCurvePoint() *curvePoint { return &curvePoint{} }

// affinePoint is a point of E in affine coordinates, two thirds the size of
// a curvePoint, for the tables and scratch arrays that hold many. (0, 0) is
// not on the curve and stands for the point at infinity.
type affinePoint struct {
	x, y gfP
}

func (p *affinePoint) IsInfinity() bool { return p.x.IsZero() && p.y.IsZero() }

func (c *curvePoint) Set(a *curvePoint) *curvePoint {
	*c = *a
	return c
}

func (c *curvePoint) SetInfinity() *curvePoint {
	c.x.SetOne()
	c.y.SetOne()
	c.z.SetZero()
	return c
}

func (c *curvePoint) IsInfinity() bool { return c.z.IsZero() }

// SetAffine sets c to the affine point (x, y) without validation.
func (c *curvePoint) SetAffine(x, y *gfP) *curvePoint {
	c.x.Set(x)
	c.y.Set(y)
	c.z.SetOne()
	return c
}

// IsOnCurve reports whether c satisfies the curve equation (infinity counts).
func (c *curvePoint) IsOnCurve() bool {
	if c.IsInfinity() {
		return true
	}
	x, y := c.Affine()
	var lhs, rhs gfP
	gfpMul(&lhs, y, y)
	gfpMul(&rhs, x, x)
	gfpMul(&rhs, &rhs, x)
	gfpAdd(&rhs, &rhs, &gfpCurveB)
	return lhs == rhs
}

// Affine returns the affine coordinates of c. It panics on infinity.
func (c *curvePoint) Affine() (x, y *gfP) {
	if c.IsInfinity() {
		panic("bn256: affine coordinates of the point at infinity")
	}
	if c.z.IsOne() {
		ax, ay := c.x, c.y
		return &ax, &ay
	}
	var zInv gfP
	zInv.Invert(&c.z)
	ax, ay := c.x, c.y
	jacobianToAffine(&ax, &ay, &zInv)
	return &ax, &ay
}

// MakeAffine normalizes c in place to z = 1 (or infinity).
func (c *curvePoint) MakeAffine() *curvePoint {
	if c.IsInfinity() || c.z.IsOne() {
		return c
	}
	x, y := c.Affine()
	c.x.Set(x)
	c.y.Set(y)
	c.z.SetOne()
	return c
}

// jacobianToAffine rescales the Jacobian coordinates (x, y) of a finite point
// to affine ones, given zInv = 1/z.
func jacobianToAffine(x, y, zInv *gfP) {
	var zInv2 gfP
	gfpSquare(&zInv2, zInv)
	gfpMul(x, x, &zInv2)
	gfpMul(&zInv2, &zInv2, zInv)
	gfpMul(y, y, &zInv2)
}

func (c *curvePoint) Equal(a *curvePoint) bool {
	if c.IsInfinity() || a.IsInfinity() {
		return c.IsInfinity() == a.IsInfinity()
	}
	// Compare via cross-multiplication to be representation independent
	// without inversions: x1*z2^2 == x2*z1^2 and y1*z2^3 == y2*z1^3.
	var z1z1, z2z2, l, r gfP
	gfpMul(&z1z1, &c.z, &c.z)
	gfpMul(&z2z2, &a.z, &a.z)
	gfpMul(&l, &c.x, &z2z2)
	gfpMul(&r, &a.x, &z1z1)
	if l != r {
		return false
	}
	gfpMul(&z1z1, &z1z1, &c.z)
	gfpMul(&z2z2, &z2z2, &a.z)
	gfpMul(&l, &c.y, &z2z2)
	gfpMul(&r, &a.y, &z1z1)
	return l == r
}

func (c *curvePoint) Neg(a *curvePoint) *curvePoint {
	c.x.Set(&a.x)
	gfpNeg(&c.y, &a.y)
	c.z.Set(&a.z)
	return c
}

// Double sets c = 2a using the standard Jacobian doubling formulas for a = 0
// curves (dbl-2009-l).
func (c *curvePoint) Double(a *curvePoint) *curvePoint {
	if a.IsInfinity() {
		return c.SetInfinity()
	}
	var A, B, C, d, e, f gfP
	gfpSquare(&A, &a.x)
	gfpSquare(&B, &a.y)
	gfpSquare(&C, &B)

	gfpAdd(&d, &a.x, &B)
	gfpSquare(&d, &d)
	gfpSub(&d, &d, &A)
	gfpSub(&d, &d, &C)
	gfpDouble(&d, &d)

	gfpDouble(&e, &A)
	gfpAdd(&e, &e, &A)

	gfpSquare(&f, &e)

	var x3, y3, z3, t gfP
	gfpDouble(&t, &d)
	gfpSub(&x3, &f, &t)

	gfpSub(&y3, &d, &x3)
	gfpMul(&y3, &y3, &e)
	gfpDouble(&t, &C)
	gfpDouble(&t, &t)
	gfpDouble(&t, &t)
	gfpSub(&y3, &y3, &t)

	gfpMul(&z3, &a.y, &a.z)
	gfpDouble(&z3, &z3)

	c.x, c.y, c.z = x3, y3, z3
	return c
}

// Add sets c = a + b using the general Jacobian addition formulas
// (add-2007-bl).
func (c *curvePoint) Add(a, b *curvePoint) *curvePoint {
	if a.IsInfinity() {
		return c.Set(b)
	}
	if b.IsInfinity() {
		return c.Set(a)
	}

	var z1z1, z2z2, u1, u2, s1, s2, h, r gfP
	gfpSquare(&z1z1, &a.z)
	gfpSquare(&z2z2, &b.z)

	gfpMul(&u1, &a.x, &z2z2)
	gfpMul(&u2, &b.x, &z1z1)

	gfpMul(&s1, &a.y, &b.z)
	gfpMul(&s1, &s1, &z2z2)
	gfpMul(&s2, &b.y, &a.z)
	gfpMul(&s2, &s2, &z1z1)

	gfpSub(&h, &u2, &u1)
	gfpSub(&r, &s2, &s1)

	if h.IsZero() {
		if r.IsZero() {
			return c.Double(a)
		}
		return c.SetInfinity()
	}
	gfpDouble(&r, &r)

	var i, j, v gfP
	gfpDouble(&i, &h)
	gfpSquare(&i, &i)
	gfpMul(&j, &h, &i)

	gfpMul(&v, &u1, &i)

	var x3, y3, z3, t gfP
	gfpSquare(&x3, &r)
	gfpSub(&x3, &x3, &j)
	gfpDouble(&t, &v)
	gfpSub(&x3, &x3, &t)

	gfpSub(&y3, &v, &x3)
	gfpMul(&y3, &y3, &r)
	gfpMul(&t, &s1, &j)
	gfpDouble(&t, &t)
	gfpSub(&y3, &y3, &t)

	gfpAdd(&z3, &a.z, &b.z)
	gfpSquare(&z3, &z3)
	gfpSub(&z3, &z3, &z1z1)
	gfpSub(&z3, &z3, &z2z2)
	gfpMul(&z3, &z3, &h)

	c.x, c.y, c.z = x3, y3, z3
	return c
}

// AddMixed sets c = a + b for b in affine form -- z is one, or zero for the
// point at infinity -- which saves five of Add's sixteen multiplications
// (madd-2007-bl).
func (c *curvePoint) AddMixed(a, b *curvePoint) *curvePoint {
	if a.IsInfinity() {
		return c.Set(b)
	}
	if b.IsInfinity() {
		return c.Set(a)
	}

	var z1z1, u2, s2, h, r gfP
	gfpSquare(&z1z1, &a.z)
	gfpMul(&u2, &b.x, &z1z1)
	gfpMul(&s2, &b.y, &a.z)
	gfpMul(&s2, &s2, &z1z1)

	gfpSub(&h, &u2, &a.x)
	gfpSub(&r, &s2, &a.y)
	if h.IsZero() {
		if r.IsZero() {
			return c.Double(a)
		}
		return c.SetInfinity()
	}
	gfpDouble(&r, &r)

	var hh, i, j, v gfP
	gfpSquare(&hh, &h)
	gfpDouble(&i, &hh)
	gfpDouble(&i, &i)
	gfpMul(&j, &h, &i)
	gfpMul(&v, &a.x, &i)

	var x3, y3, z3, t gfP
	gfpSquare(&x3, &r)
	gfpSub(&x3, &x3, &j)
	gfpDouble(&t, &v)
	gfpSub(&x3, &x3, &t)

	gfpSub(&y3, &v, &x3)
	gfpMul(&y3, &y3, &r)
	gfpMul(&t, &a.y, &j)
	gfpDouble(&t, &t)
	gfpSub(&y3, &y3, &t)

	gfpAdd(&z3, &a.z, &h)
	gfpSquare(&z3, &z3)
	gfpSub(&z3, &z3, &z1z1)
	gfpSub(&z3, &z3, &hh)

	c.x, c.y, c.z = x3, y3, z3
	return c
}

// Mul sets c = k*a by double-and-add, k taken as given and not mod n: it is
// what checks that a point has order n (initGenerators) and the reference
// every faster multiplication is tested against. G1.ScalarMult and
// MultiScalarMult reduce k mod n and run on the GLV split (multiexp.go).
func (c *curvePoint) Mul(a *curvePoint, k *big.Int) *curvePoint {
	if k.Sign() < 0 {
		na := newCurvePoint().Neg(a)
		return c.Mul(na, new(big.Int).Neg(k))
	}
	sum := newCurvePoint().SetInfinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		sum.Double(sum)
		if k.Bit(i) != 0 {
			sum.Add(sum, a)
		}
	}
	return c.Set(sum)
}
