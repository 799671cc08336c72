package bn256

// gfP6 implements the degree-three extension Fp6 = Fp2[tau]/(tau^3 - xi).
// An element is x*tau^2 + y*tau + z, with the gfP2 coefficients held inline.
type gfP6 struct {
	x, y, z gfP2
}

func newGFp6() *gfP6 { return &gfP6{} }

func (e *gfP6) String() string {
	return "(" + e.x.String() + "tau^2 + " + e.y.String() + "tau + " + e.z.String() + ")"
}

func (e *gfP6) Set(a *gfP6) *gfP6 {
	*e = *a
	return e
}

func (e *gfP6) SetZero() *gfP6 {
	*e = gfP6{}
	return e
}

func (e *gfP6) SetOne() *gfP6 {
	e.x.SetZero()
	e.y.SetZero()
	e.z.SetOne()
	return e
}

func (e *gfP6) IsZero() bool { return e.x.IsZero() && e.y.IsZero() && e.z.IsZero() }

func (e *gfP6) IsOne() bool { return e.x.IsZero() && e.y.IsZero() && e.z.IsOne() }

func (e *gfP6) Neg(a *gfP6) *gfP6 {
	e.x.Neg(&a.x)
	e.y.Neg(&a.y)
	e.z.Neg(&a.z)
	return e
}

// Frobenius sets e = a^p.
// tau^p = tau * xi^((p-1)/3) and tau^(2p) = tau^2 * xi^(2(p-1)/3), while the
// Fp2 coefficients are conjugated.
func (e *gfP6) Frobenius(a *gfP6) *gfP6 {
	e.x.Conjugate(&a.x)
	e.y.Conjugate(&a.y)
	e.z.Conjugate(&a.z)
	e.x.Mul(&e.x, xiTo2PMinus2Over3)
	e.y.Mul(&e.y, xiToPMinus1Over3)
	return e
}

// FrobeniusP2 sets e = a^(p^2). The coefficients of the p^2-power Frobenius
// lie in Fp, so no conjugation is involved.
func (e *gfP6) FrobeniusP2(a *gfP6) *gfP6 {
	e.x.MulScalar(&a.x, &xiTo2PSquaredMinus2Over3)
	e.y.MulScalar(&a.y, &xiToPSquaredMinus1Over3)
	e.z.Set(&a.z)
	return e
}

func (e *gfP6) Add(a, b *gfP6) *gfP6 {
	e.x.Add(&a.x, &b.x)
	e.y.Add(&a.y, &b.y)
	e.z.Add(&a.z, &b.z)
	return e
}

func (e *gfP6) Sub(a, b *gfP6) *gfP6 {
	e.x.Sub(&a.x, &b.x)
	e.y.Sub(&a.y, &b.y)
	e.z.Sub(&a.z, &b.z)
	return e
}

func (e *gfP6) Double(a *gfP6) *gfP6 {
	e.x.Double(&a.x)
	e.y.Double(&a.y)
	e.z.Double(&a.z)
	return e
}

// Mul sets e = a*b with tau^3 = xi reduction:
//
//	z' = az*bz + xi(ax*by + ay*bx)
//	y' = ay*bz + az*by + xi(ax*bx)
//	x' = ax*bz + ay*by + az*bx
//
// using three-way Karatsuba: the diagonal products v0 = az*bz, v1 = ay*by,
// v2 = ax*bx plus one multiplication per cross pair, six gfP2
// multiplications total instead of nine.
func (e *gfP6) Mul(a, b *gfP6) *gfP6 {
	var v0, v1, v2, t01, t02, t12, s, t gfP2

	v0.Mul(&a.z, &b.z)
	v1.Mul(&a.y, &b.y)
	v2.Mul(&a.x, &b.x)

	// t01 = az*by + ay*bz, t02 = az*bx + ax*bz, t12 = ay*bx + ax*by.
	s.Add(&a.z, &a.y)
	t.Add(&b.z, &b.y)
	t01.Mul(&s, &t)
	t01.Sub(&t01, &v0)
	t01.Sub(&t01, &v1)

	s.Add(&a.z, &a.x)
	t.Add(&b.z, &b.x)
	t02.Mul(&s, &t)
	t02.Sub(&t02, &v0)
	t02.Sub(&t02, &v2)

	s.Add(&a.y, &a.x)
	t.Add(&b.y, &b.x)
	t12.Mul(&s, &t)
	t12.Sub(&t12, &v1)
	t12.Sub(&t12, &v2)

	var tx, ty, tz gfP2
	tz.MulXi(&t12)
	tz.Add(&tz, &v0)

	ty.MulXi(&v2)
	ty.Add(&ty, &t01)

	tx.Add(&t02, &v1)

	e.x = tx
	e.y = ty
	e.z = tz
	return e
}

func (e *gfP6) Square(a *gfP6) *gfP6 { return e.Mul(a, a) }

// MulGFP2 sets e = a*b for b in Fp2.
func (e *gfP6) MulGFP2(a *gfP6, b *gfP2) *gfP6 {
	e.x.Mul(&a.x, b)
	e.y.Mul(&a.y, b)
	e.z.Mul(&a.z, b)
	return e
}

// MulScalar sets e = a*b for b in Fp.
func (e *gfP6) MulScalar(a *gfP6, b *gfP) *gfP6 {
	e.x.MulScalar(&a.x, b)
	e.y.MulScalar(&a.y, b)
	e.z.MulScalar(&a.z, b)
	return e
}

// MulTau sets e = a*tau, shifting coefficients with tau^3 = xi.
func (e *gfP6) MulTau(a *gfP6) *gfP6 {
	var tz gfP2
	tz.MulXi(&a.x)
	e.x, e.y, e.z = a.y, a.z, tz
	return e
}

// Invert sets e = 1/a using the standard norm-based formula for cubic
// extensions. Writing a = c0 + c1*tau + c2*tau^2 (c0 = a.z, c1 = a.y,
// c2 = a.x):
//
//	t0 = c0^2 - xi*c1*c2
//	t1 = xi*c2^2 - c0*c1
//	t2 = c1^2 - c0*c2
//	F  = c0*t0 + xi*c1*t2 + xi*c2*t1
//	1/a = (t0 + t1*tau + t2*tau^2) / F
func (e *gfP6) Invert(a *gfP6) *gfP6 {
	var t, t0, t1, t2, f gfP2

	t0.Mul(&a.y, &a.x)
	t0.MulXi(&t0)
	t.Square(&a.z)
	t0.Sub(&t, &t0)

	t1.Square(&a.x)
	t1.MulXi(&t1)
	t.Mul(&a.z, &a.y)
	t1.Sub(&t1, &t)

	t2.Square(&a.y)
	t.Mul(&a.z, &a.x)
	t2.Sub(&t2, &t)

	f.Mul(&a.y, &t2)
	f.MulXi(&f)
	t.Mul(&a.z, &t0)
	f.Add(&f, &t)
	t.Mul(&a.x, &t1)
	t.MulXi(&t)
	f.Add(&f, &t)

	f.Invert(&f)
	e.z.Mul(&t0, &f)
	e.y.Mul(&t1, &f)
	e.x.Mul(&t2, &f)
	return e
}
