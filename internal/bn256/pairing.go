package bn256

// This file implements the optimal ate pairing
//
//	e(P, Q) = f_{6u+2,Q}(P) * l_{[6u+2]Q, pi(Q)}(P) * l_{[6u+2]Q+pi(Q), -pi^2(Q)}(P)
//
// raised to (p^12-1)/n, with Q on the sextic twist and lines evaluated at P
// through the untwist map (x, y) -> (x*w^2, y*w^3), w^6 = xi.
//
// The Miller loop keeps the accumulator point T in homogeneous projective
// coordinates (x, y) = (X/Z, Y/Z), so no step inverts anything. The affine
// tangent or chord with slope lambda through T evaluated at P = (xP, yP) is
//
//	l(P) = yP - lambda*xP*w + (lambda*xT - yT)*w^3;
//
// each step evaluates it multiplied through by its own denominator (the
// formulas of Costello, Lange and Naehrig for y^2 = x^3 + b). That factor
// lies in Fp2, and the final exponentiation sends every element of a proper
// subfield of Fp12 to one, so pairings are unchanged; only the unreduced
// value differs from the one an affine loop would produce.

// affTwist is a finite affine twist point.
type affTwist struct {
	x, y gfP2
}

// projTwist is the Miller loop's accumulator, a finite twist point in
// homogeneous projective coordinates.
type projTwist struct {
	x, y, z gfP2
}

// lineEval builds the sparse Fp12 element a + b*w + c*w^3 with a, b, c in
// Fp2. In the tower Fp12 = Fp6[w], Fp6 = Fp2[w^2]:
// w^0 -> y.z, w^1 -> x.z, w^2 -> y.y, w^3 -> x.y.
func lineEval(l *gfP12, a, b, c *gfP2) *gfP12 {
	l.SetZero()
	l.y.z.Set(a)
	l.x.z.Set(b)
	l.x.y.Set(c)
	return l
}

// lineDouble writes the tangent line at T evaluated at P into l, scaled by
// -2YZ, and replaces T with 2T. T is never a point of order two: it is a
// multiple of a point of odd prime order n.
func lineDouble(l *gfP12, t *projTwist, px, py *gfP) *gfP12 {
	var xy, b, c, j, h, e, f, tmp gfP2
	xy.Mul(&t.x, &t.y)
	b.Square(&t.y)
	c.Square(&t.z)
	j.Square(&t.x)
	h.Add(&t.y, &t.z) // h = 2YZ
	h.Square(&h)
	h.Sub(&h, &b)
	h.Sub(&h, &c)
	e.Mul(&c, twistB) // e = 3b'Z^2
	tmp.Double(&e)
	e.Add(&e, &tmp)
	f.Double(&e) // f = 3e
	f.Add(&f, &e)

	// -2YZ*yP + 3X^2*xP*w + (3b'Z^2 - Y^2)*w^3
	var la, lb, lc gfP2
	la.MulScalar(&h, py)
	la.Neg(&la)
	lb.Double(&j)
	lb.Add(&lb, &j)
	lb.MulScalar(&lb, px)
	lc.Sub(&e, &b)
	lineEval(l, &la, &lb, &lc)

	// 2T = (2XY(b-f), (b+f)^2 - 12e^2, 4bh), with b = Y^2
	t.x.Sub(&b, &f)
	t.x.Mul(&t.x, &xy)
	t.x.Double(&t.x)
	t.y.Add(&b, &f)
	t.y.Square(&t.y)
	e.Square(&e)
	tmp.Double(&e)
	tmp.Add(&tmp, &e)
	tmp.Double(&tmp)
	tmp.Double(&tmp)
	t.y.Sub(&t.y, &tmp)
	t.z.Mul(&b, &h)
	t.z.Double(&t.z)
	t.z.Double(&t.z)
	return l
}

// lineAdd writes the chord line through T and Q evaluated at P into l,
// scaled by X - xQ*Z, and replaces T with T+Q. The loop only ever adds Q (or
// a Frobenius image of it) to a multiple kQ with 1 < k < n, so T is never
// Q or -Q.
func lineAdd(l *gfP12, t *projTwist, q *affTwist, px, py *gfP) *gfP12 {
	var theta, lambda, c, d, e, f, g, h, tmp gfP2
	theta.Mul(&q.y, &t.z) // theta/lambda is the slope
	theta.Sub(&t.y, &theta)
	lambda.Mul(&q.x, &t.z)
	lambda.Sub(&t.x, &lambda)
	c.Square(&theta)
	d.Square(&lambda)
	e.Mul(&lambda, &d)
	f.Mul(&t.z, &c)
	g.Mul(&t.x, &d)
	h.Add(&e, &f)
	tmp.Double(&g)
	h.Sub(&h, &tmp)

	// lambda*yP - theta*xP*w + (theta*xQ - lambda*yQ)*w^3
	var la, lb, lc gfP2
	la.MulScalar(&lambda, py)
	lb.MulScalar(&theta, px)
	lb.Neg(&lb)
	lc.Mul(&theta, &q.x)
	tmp.Mul(&lambda, &q.y)
	lc.Sub(&lc, &tmp)
	lineEval(l, &la, &lb, &lc)

	// T+Q = (lambda*h, theta*(g-h) - e*Y, Z*e)
	t.x.Mul(&lambda, &h)
	g.Sub(&g, &h)
	g.Mul(&g, &theta)
	tmp.Mul(&e, &t.y)
	t.y.Sub(&g, &tmp)
	t.z.Mul(&t.z, &e)
	return l
}

// frobTwist computes pi(Q) = (conj(x)*xi^((p-1)/3), conj(y)*xi^((p-1)/2))
// for an affine twist point.
func frobTwist(q *affTwist) *affTwist {
	r := &affTwist{}
	r.x.Conjugate(&q.x)
	r.x.Mul(&r.x, xiToPMinus1Over3)
	r.y.Conjugate(&q.y)
	r.y.Mul(&r.y, xiToPMinus1Over2)
	return r
}

// negFrobTwistSquared computes -pi^2(Q) = (x*xi^((p^2-1)/3), y), using
// xi^((p^2-1)/2) = -1 (validated at init).
func negFrobTwistSquared(q *affTwist) *affTwist {
	r := &affTwist{}
	r.x.MulScalar(&q.x, &xiToPSquaredMinus1Over3)
	r.y.Set(&q.y)
	return r
}

// miller computes the Miller loop value f_{6u+2,Q}(P) with the two optimal
// ate adjustment lines, before final exponentiation.
func miller(q *twistPoint, c *curvePoint) *gfP12 {
	f := newGFp12().SetOne()
	if q.IsInfinity() || c.IsInfinity() {
		return f
	}
	px, py := c.Affine()
	qx, qy := q.Affine()
	qa := &affTwist{x: *qx, y: *qy}
	t := &projTwist{x: *qx, y: *qy}
	t.z.SetOne()

	l := newGFp12()
	for i := loopCount.BitLen() - 2; i >= 0; i-- {
		f.Square(f)
		f.Mul(f, lineDouble(l, t, px, py))
		if loopCount.Bit(i) != 0 {
			f.Mul(f, lineAdd(l, t, qa, px, py))
		}
	}

	q1 := frobTwist(qa)
	q2 := negFrobTwistSquared(qa)
	f.Mul(f, lineAdd(l, t, q1, px, py))
	f.Mul(f, lineAdd(l, t, q2, px, py))
	return f
}

// finalExponentiation raises f to (p^12-1)/n with a naive hard part: a
// direct square-and-multiply by the exact exponent (p^4-p^2+1)/n. It is
// kept as the unconditionally-correct reference implementation; the
// production path (finalExponentiationFast in finalexp.go) must agree with
// it on random inputs, which TestFastFinalExpMatchesNaive enforces.
func finalExponentiation(f *gfP12) *gfP12 {
	t := newGFp12().Conjugate(f)
	inv := newGFp12().Invert(f)
	t.Mul(t, inv) // f^(p^6-1)

	t2 := newGFp12().FrobeniusP2(t)
	t.Mul(t, t2) // ^(p^2+1)

	return newGFp12().Exp(t, hardExponent)
}

// pair computes the full optimal ate pairing on internal representations.
func pair(c *curvePoint, q *twistPoint) *gfP12 {
	return finalExponentiationFast(miller(q, c))
}
