package bn256

import "math/big"

// twistPoint is a point on the sextic twist E': y^2 = x^3 + 3/xi over Fp2,
// in Jacobian coordinates. z = 0 (both components) encodes infinity.
type twistPoint struct {
	x, y, z gfP2
}

func newTwistPoint() *twistPoint { return &twistPoint{} }

func (t *twistPoint) Set(a *twistPoint) *twistPoint {
	*t = *a
	return t
}

func (t *twistPoint) SetInfinity() *twistPoint {
	t.x.SetOne()
	t.y.SetOne()
	t.z.SetZero()
	return t
}

func (t *twistPoint) IsInfinity() bool { return t.z.IsZero() }

func (t *twistPoint) SetAffine(x, y *gfP2) *twistPoint {
	t.x.Set(x)
	t.y.Set(y)
	t.z.SetOne()
	return t
}

// IsOnCurve reports whether t satisfies the twist equation.
func (t *twistPoint) IsOnCurve() bool {
	if t.IsInfinity() {
		return true
	}
	x, y := t.Affine()
	var lhs, rhs gfP2
	lhs.Square(y)
	rhs.Square(x)
	rhs.Mul(&rhs, x)
	rhs.Add(&rhs, twistB)
	return lhs.Equal(&rhs)
}

// Affine returns the affine coordinates of t. It panics on infinity.
func (t *twistPoint) Affine() (x, y *gfP2) {
	if t.IsInfinity() {
		panic("bn256: affine coordinates of the twist point at infinity")
	}
	if t.z.IsOne() {
		ax, ay := t.x, t.y
		return &ax, &ay
	}
	var zInv, zInv2 gfP2
	zInv.Invert(&t.z)
	zInv2.Square(&zInv)
	x, y = newGFp2(), newGFp2()
	x.Mul(&t.x, &zInv2)
	zInv2.Mul(&zInv2, &zInv)
	y.Mul(&t.y, &zInv2)
	return x, y
}

// MakeAffine normalizes t in place to z = 1 (or infinity).
func (t *twistPoint) MakeAffine() *twistPoint {
	if t.IsInfinity() || t.z.IsOne() {
		return t
	}
	x, y := t.Affine()
	t.x.Set(x)
	t.y.Set(y)
	t.z.SetOne()
	return t
}

func (t *twistPoint) Equal(a *twistPoint) bool {
	if t.IsInfinity() || a.IsInfinity() {
		return t.IsInfinity() == a.IsInfinity()
	}
	// Cross-multiplied comparison, representation independent without
	// inversions: x1*z2^2 == x2*z1^2 and y1*z2^3 == y2*z1^3.
	var z1z1, z2z2, l, r gfP2
	z1z1.Square(&t.z)
	z2z2.Square(&a.z)
	l.Mul(&t.x, &z2z2)
	r.Mul(&a.x, &z1z1)
	if !l.Equal(&r) {
		return false
	}
	z1z1.Mul(&z1z1, &t.z)
	z2z2.Mul(&z2z2, &a.z)
	l.Mul(&t.y, &z2z2)
	r.Mul(&a.y, &z1z1)
	return l.Equal(&r)
}

func (t *twistPoint) Neg(a *twistPoint) *twistPoint {
	t.x.Set(&a.x)
	t.y.Neg(&a.y)
	t.z.Set(&a.z)
	return t
}

// Double sets t = 2a (Jacobian, a = 0 curve).
func (t *twistPoint) Double(a *twistPoint) *twistPoint {
	if a.IsInfinity() {
		return t.SetInfinity()
	}
	var A, B, C, d, e, f gfP2
	A.Square(&a.x)
	B.Square(&a.y)
	C.Square(&B)

	d.Add(&a.x, &B)
	d.Square(&d)
	d.Sub(&d, &A)
	d.Sub(&d, &C)
	d.Double(&d)

	e.Double(&A)
	e.Add(&e, &A)

	f.Square(&e)

	var x3, y3, z3, c8 gfP2
	x3.Double(&d)
	x3.Sub(&f, &x3)

	c8.Double(&C)
	c8.Double(&c8)
	c8.Double(&c8)
	y3.Sub(&d, &x3)
	y3.Mul(&y3, &e)
	y3.Sub(&y3, &c8)

	z3.Mul(&a.y, &a.z)
	z3.Double(&z3)

	t.x, t.y, t.z = x3, y3, z3
	return t
}

// Add sets t = a + b (general Jacobian addition).
func (t *twistPoint) Add(a, b *twistPoint) *twistPoint {
	if a.IsInfinity() {
		return t.Set(b)
	}
	if b.IsInfinity() {
		return t.Set(a)
	}

	var z1z1, z2z2, u1, u2, s1, s2, h, r gfP2
	z1z1.Square(&a.z)
	z2z2.Square(&b.z)

	u1.Mul(&a.x, &z2z2)
	u2.Mul(&b.x, &z1z1)

	s1.Mul(&a.y, &b.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&b.y, &a.z)
	s2.Mul(&s2, &z1z1)

	h.Sub(&u2, &u1)
	r.Sub(&s2, &s1)

	if h.IsZero() {
		if r.IsZero() {
			return t.Double(a)
		}
		return t.SetInfinity()
	}
	r.Double(&r)

	var i, j, v gfP2
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)

	v.Mul(&u1, &i)

	var x3, y3, z3, tmp gfP2
	x3.Square(&r)
	x3.Sub(&x3, &j)
	tmp.Double(&v)
	x3.Sub(&x3, &tmp)

	y3.Sub(&v, &x3)
	y3.Mul(&y3, &r)
	tmp.Mul(&s1, &j)
	tmp.Double(&tmp)
	y3.Sub(&y3, &tmp)

	z3.Add(&a.z, &b.z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	t.x, t.y, t.z = x3, y3, z3
	return t
}

// Mul sets t = k*a by double-and-add.
func (t *twistPoint) Mul(a *twistPoint, k *big.Int) *twistPoint {
	if k.Sign() < 0 {
		na := newTwistPoint().Neg(a)
		return t.Mul(na, new(big.Int).Neg(k))
	}
	sum := newTwistPoint().SetInfinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		sum.Double(sum)
		if k.Bit(i) != 0 {
			sum.Add(sum, a)
		}
	}
	return t.Set(sum)
}
