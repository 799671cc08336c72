package bn256

import (
	"math/big"
	"math/bits"
)

// gfP is an element of the base field Fp as four 64-bit limbs in Montgomery
// form: a gfP holding limbs x represents the field element x * R^-1 mod p,
// R = 2^256. Values are always fully reduced into [0, p). The fixed-size
// representation keeps every field operation allocation-free and turns the
// full modular reduction after each big.Int op into a handful of
// math/bits.Mul64/Add64 instructions.
//
// Keeping values in [0, p) costs each operation one final reduction. In
// gfpAdd and gfpSub it is a mask select, with no branch: on uniformly
// distributed operands a sum reaches p, or a difference goes below zero, about
// half the time, so a branch there mispredicts on nearly every other call, and
// every tower, curve and line formula does more additions than
// multiplications. gfpMul and gfpSquare keep a branch (carrySub): a
// Montgomery product needs the subtraction on a small share of inputs, so it
// predicts well and beats computing both candidates.
//
// The Montgomery constants are not transcribed: initGFp derives them from
// the package prime P (itself derived from the BN parameter u) and validates
// them, matching the package's derive-and-check philosophy. Conversion in
// and out of Montgomery form happens only at the marshal boundary and when
// interoperating with math/big (SetBig, Big), so wire formats are
// byte-identical to the big.Int implementation.
type gfP [4]uint64

var (
	// pLimbs is the prime p as little-endian limbs.
	pLimbs [4]uint64

	// np is -p^-1 mod 2^64, the Montgomery reduction factor.
	np uint64

	// r2 is R^2 mod p as raw limbs; multiplying by it converts a canonical
	// value into Montgomery form.
	r2 gfP

	// rOne is R mod p: the Montgomery form of 1.
	rOne gfP

	// gfpCurveB is the curve constant 3 in Montgomery form.
	gfpCurveB gfP
)

// initGFp derives the Montgomery constants from P. It must run after P is
// derived and before any gfP arithmetic (constants.go calls it from init).
func initGFp() {
	pLimbs = limbsFromBig(pBig)

	np = montInv64(pLimbs[0])

	one := new(big.Int).Lsh(bigOne, 256)
	rOne = limbsFromBig(new(big.Int).Mod(one, pBig))
	r2big := new(big.Int).Lsh(bigOne, 512)
	r2 = limbsFromBig(r2big.Mod(r2big, pBig))

	gfpCurveB.SetBig(curveB)

	// Sanity: 1 encodes/decodes through Montgomery form.
	var chk gfP
	chk.SetBig(bigOne)
	if chk != rOne || chk.Big().Cmp(bigOne) != 0 {
		panic("bn256: montgomery constant derivation failed")
	}
}

// montInv64 returns -m0^-1 mod 2^64 for an odd m0 by Newton iteration: each
// step doubles the number of correct low bits, 6 steps suffice for 64.
func montInv64(m0 uint64) uint64 {
	inv := m0 // correct to 1 bit (m0 is odd)
	for i := 0; i < 6; i++ {
		inv *= 2 - m0*inv
	}
	if m0*inv != 1 {
		panic("bn256: montgomery inverse derivation failed")
	}
	return -inv
}

// limbsFromBig converts a canonical value in [0, 2^256) to limbs.
func limbsFromBig(v *big.Int) [4]uint64 {
	var buf [32]byte
	v.FillBytes(buf[:])
	return limbsFromBytes(buf[:])
}

// limbsFromBytes parses a 32-byte big-endian encoding into limbs.
func limbsFromBytes(data []byte) [4]uint64 {
	var out [4]uint64
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			out[3-i] = out[3-i]<<8 | uint64(data[i*8+j])
		}
	}
	return out
}

// limbsLess reports a < b for little-endian limbs.
func limbsLess(a, b [4]uint64) bool {
	var borrow uint64
	_, borrow = bits.Sub64(a[0], b[0], 0)
	_, borrow = bits.Sub64(a[1], b[1], borrow)
	_, borrow = bits.Sub64(a[2], b[2], borrow)
	_, borrow = bits.Sub64(a[3], b[3], borrow)
	return borrow != 0
}

// carrySub reduces c from [0, 2m) into [0, m) by subtracting m when c >= m,
// behind a branch. It ends montMul and gfpSquare (and the inverse's fix-up),
// whose output lands in [m, 2m) for a small share of inputs, so the branch
// predicts well and is cheaper than the mask select of two candidates that
// modAdd uses, where the subtraction is needed half the time.
func carrySub(c, m *[4]uint64) {
	var d [4]uint64
	var borrow uint64
	d[0], borrow = bits.Sub64(c[0], m[0], 0)
	d[1], borrow = bits.Sub64(c[1], m[1], borrow)
	d[2], borrow = bits.Sub64(c[2], m[2], borrow)
	d[3], borrow = bits.Sub64(c[3], m[3], borrow)
	if borrow == 0 {
		*c = d
	}
}

// The add, subtract, negate and multiply kernels below take the modulus m
// (odd, below 2^254) as an argument: the base field runs them mod p through
// the gfp* wrappers, and Scalar runs the same code mod the group order n.

// modAdd sets c = a + b mod m for a, b in [0, m). m < 2^254 keeps the sum
// below 2^255, so it never carries out of the top limb; the sum and the sum
// minus m are both computed and the subtraction's borrow (set exactly when
// the sum is below m) keeps one by mask, with no data-dependent branch. c may
// alias a or b.
func modAdd(c, a, b, m *[4]uint64) {
	s0, carry := bits.Add64(a[0], b[0], 0)
	s1, carry := bits.Add64(a[1], b[1], carry)
	s2, carry := bits.Add64(a[2], b[2], carry)
	s3, _ := bits.Add64(a[3], b[3], carry)
	d0, borrow := bits.Sub64(s0, m[0], 0)
	d1, borrow := bits.Sub64(s1, m[1], borrow)
	d2, borrow := bits.Sub64(s2, m[2], borrow)
	d3, borrow := bits.Sub64(s3, m[3], borrow)
	keep := -borrow // all ones when the sum is already below m
	c[0] = d0 ^ (d0^s0)&keep
	c[1] = d1 ^ (d1^s1)&keep
	c[2] = d2 ^ (d2^s2)&keep
	c[3] = d3 ^ (d3^s3)&keep
}

// modSub sets c = a - b mod m for a, b in [0, m): the difference's borrow
// masks m, which is added back unconditionally, with no data-dependent
// branch. c may alias a or b.
func modSub(c, a, b, m *[4]uint64) {
	d0, borrow := bits.Sub64(a[0], b[0], 0)
	d1, borrow := bits.Sub64(a[1], b[1], borrow)
	d2, borrow := bits.Sub64(a[2], b[2], borrow)
	d3, borrow := bits.Sub64(a[3], b[3], borrow)
	wrap := -borrow // all ones when a < b
	m0, m1, m2, m3 := m[0]&wrap, m[1]&wrap, m[2]&wrap, m[3]&wrap
	var carry uint64
	c[0], carry = bits.Add64(d0, m0, 0)
	c[1], carry = bits.Add64(d1, m1, carry)
	c[2], carry = bits.Add64(d2, m2, carry)
	c[3], _ = bits.Add64(d3, m3, carry)
}

// modNeg sets c = -a mod m for a in [0, m).
func modNeg(c, a, m *[4]uint64) {
	if *a == [4]uint64{} {
		*c = [4]uint64{}
		return
	}
	var borrow uint64
	c[0], borrow = bits.Sub64(m[0], a[0], 0)
	c[1], borrow = bits.Sub64(m[1], a[1], borrow)
	c[2], borrow = bits.Sub64(m[2], a[2], borrow)
	c[3], _ = bits.Sub64(m[3], a[3], borrow)
}

func gfpAdd(c, a, b *gfP) { modAdd((*[4]uint64)(c), (*[4]uint64)(a), (*[4]uint64)(b), &pLimbs) }

func gfpSub(c, a, b *gfP) { modSub((*[4]uint64)(c), (*[4]uint64)(a), (*[4]uint64)(b), &pLimbs) }

func gfpNeg(c, a *gfP) { modNeg((*[4]uint64)(c), (*[4]uint64)(a), &pLimbs) }

func gfpDouble(c, a *gfP) { gfpAdd(c, a, a) }

func gfpMul(c, a, b *gfP) {
	montMul((*[4]uint64)(c), (*[4]uint64)(a), (*[4]uint64)(b), &pLimbs, np)
}

// montMul sets c = a * b * R^-1 mod m by Montgomery multiplication, operand
// scanning (CIOS) with both loops unrolled: round i adds the row a*b[i], then
// the multiple q*m that clears the low word, and drops that word. inv is
// -m^-1 mod 2^64. The rounds are "no-carry": m < 2^254 keeps the running
// value below 2m < 2^255, so it fits t0..t3 between rounds and needs one more
// word (t4), never two, inside a round; a single conditional subtraction at
// the end fully reduces. The bound needs only a < m: b may be any 256-bit
// value, which is how raw limbs are reduced (multiply by R^2). c may alias a
// or b.
func montMul(c, a, b, m *[4]uint64, inv uint64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	p0, p1, p2, p3 := m[0], m[1], m[2], m[3]
	var t0, t1, t2, t3, t4, h0, h1, h2, h3, l0, l1, l2, l3, q, cc uint64

	v := b[0]
	h0, t0 = bits.Mul64(a0, v)
	h1, t1 = bits.Mul64(a1, v)
	h2, t2 = bits.Mul64(a2, v)
	h3, t3 = bits.Mul64(a3, v)
	t1, cc = bits.Add64(t1, h0, 0)
	t2, cc = bits.Add64(t2, h1, cc)
	t3, cc = bits.Add64(t3, h2, cc)
	t4 = h3 + cc
	q = t0 * inv
	h0, l0 = bits.Mul64(p0, q)
	h1, l1 = bits.Mul64(p1, q)
	h2, l2 = bits.Mul64(p2, q)
	h3, l3 = bits.Mul64(p3, q)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	_, cc = bits.Add64(t0, l0, 0)
	t0, cc = bits.Add64(t1, l1, cc)
	t1, cc = bits.Add64(t2, l2, cc)
	t2, cc = bits.Add64(t3, l3, cc)
	t3 = t4 + h3 + cc

	v = b[1]
	h0, l0 = bits.Mul64(a0, v)
	h1, l1 = bits.Mul64(a1, v)
	h2, l2 = bits.Mul64(a2, v)
	h3, l3 = bits.Mul64(a3, v)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	t0, cc = bits.Add64(t0, l0, 0)
	t1, cc = bits.Add64(t1, l1, cc)
	t2, cc = bits.Add64(t2, l2, cc)
	t3, cc = bits.Add64(t3, l3, cc)
	t4 = h3 + cc
	q = t0 * inv
	h0, l0 = bits.Mul64(p0, q)
	h1, l1 = bits.Mul64(p1, q)
	h2, l2 = bits.Mul64(p2, q)
	h3, l3 = bits.Mul64(p3, q)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	_, cc = bits.Add64(t0, l0, 0)
	t0, cc = bits.Add64(t1, l1, cc)
	t1, cc = bits.Add64(t2, l2, cc)
	t2, cc = bits.Add64(t3, l3, cc)
	t3 = t4 + h3 + cc

	v = b[2]
	h0, l0 = bits.Mul64(a0, v)
	h1, l1 = bits.Mul64(a1, v)
	h2, l2 = bits.Mul64(a2, v)
	h3, l3 = bits.Mul64(a3, v)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	t0, cc = bits.Add64(t0, l0, 0)
	t1, cc = bits.Add64(t1, l1, cc)
	t2, cc = bits.Add64(t2, l2, cc)
	t3, cc = bits.Add64(t3, l3, cc)
	t4 = h3 + cc
	q = t0 * inv
	h0, l0 = bits.Mul64(p0, q)
	h1, l1 = bits.Mul64(p1, q)
	h2, l2 = bits.Mul64(p2, q)
	h3, l3 = bits.Mul64(p3, q)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	_, cc = bits.Add64(t0, l0, 0)
	t0, cc = bits.Add64(t1, l1, cc)
	t1, cc = bits.Add64(t2, l2, cc)
	t2, cc = bits.Add64(t3, l3, cc)
	t3 = t4 + h3 + cc

	v = b[3]
	h0, l0 = bits.Mul64(a0, v)
	h1, l1 = bits.Mul64(a1, v)
	h2, l2 = bits.Mul64(a2, v)
	h3, l3 = bits.Mul64(a3, v)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	t0, cc = bits.Add64(t0, l0, 0)
	t1, cc = bits.Add64(t1, l1, cc)
	t2, cc = bits.Add64(t2, l2, cc)
	t3, cc = bits.Add64(t3, l3, cc)
	t4 = h3 + cc
	q = t0 * inv
	h0, l0 = bits.Mul64(p0, q)
	h1, l1 = bits.Mul64(p1, q)
	h2, l2 = bits.Mul64(p2, q)
	h3, l3 = bits.Mul64(p3, q)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	_, cc = bits.Add64(t0, l0, 0)
	t0, cc = bits.Add64(t1, l1, cc)
	t1, cc = bits.Add64(t2, l2, cc)
	t2, cc = bits.Add64(t3, l3, cc)
	t3 = t4 + h3 + cc

	*c = [4]uint64{t0, t1, t2, t3}
	carrySub(c, m)
}

// gfpSquare sets c = a * a * R^-1 mod p. The off-diagonal products a[i]*a[j]
// are computed once and doubled (10 word multiplications for the 512-bit
// square w0..w7 instead of 16), then four reduction rounds each clear one low
// word. As in gfpMul, the result is below 2p, so w7 never overflows.
func gfpSquare(c, a *gfP) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	p0, p1, p2, p3 := pLimbs[0], pLimbs[1], pLimbs[2], pLimbs[3]
	inv := np
	var w0, w1, w2, w3, w4, w5, w6, w7, h0, h1, h2, h3, l0, l1, l2, l3, m, cc uint64

	h0, w1 = bits.Mul64(a0, a1)
	h1, l1 = bits.Mul64(a0, a2)
	h2, l2 = bits.Mul64(a0, a3)
	w2, cc = bits.Add64(h0, l1, 0)
	w3, cc = bits.Add64(h1, l2, cc)
	w4 = h2 + cc
	h0, l0 = bits.Mul64(a1, a2)
	h1, l1 = bits.Mul64(a1, a3)
	h2, l2 = bits.Mul64(a2, a3)
	w3, cc = bits.Add64(w3, l0, 0)
	w4, cc = bits.Add64(w4, h0, cc)
	w5 = h1 + cc
	w4, cc = bits.Add64(w4, l1, 0)
	w5, cc = bits.Add64(w5, l2, cc)
	w6 = h2 + cc

	w7 = w6 >> 63
	w6 = w6<<1 | w5>>63
	w5 = w5<<1 | w4>>63
	w4 = w4<<1 | w3>>63
	w3 = w3<<1 | w2>>63
	w2 = w2<<1 | w1>>63
	w1 <<= 1

	h0, w0 = bits.Mul64(a0, a0)
	h1, l1 = bits.Mul64(a1, a1)
	h2, l2 = bits.Mul64(a2, a2)
	h3, l3 = bits.Mul64(a3, a3)
	w1, cc = bits.Add64(w1, h0, 0)
	w2, cc = bits.Add64(w2, l1, cc)
	w3, cc = bits.Add64(w3, h1, cc)
	w4, cc = bits.Add64(w4, l2, cc)
	w5, cc = bits.Add64(w5, h2, cc)
	w6, cc = bits.Add64(w6, l3, cc)
	w7 += h3 + cc

	m = w0 * inv
	h0, l0 = bits.Mul64(p0, m)
	h1, l1 = bits.Mul64(p1, m)
	h2, l2 = bits.Mul64(p2, m)
	h3, l3 = bits.Mul64(p3, m)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	_, cc = bits.Add64(w0, l0, 0)
	w1, cc = bits.Add64(w1, l1, cc)
	w2, cc = bits.Add64(w2, l2, cc)
	w3, cc = bits.Add64(w3, l3, cc)
	w4, cc = bits.Add64(w4, h3, cc)
	w5, cc = bits.Add64(w5, 0, cc)
	w6, cc = bits.Add64(w6, 0, cc)
	w7 += cc

	m = w1 * inv
	h0, l0 = bits.Mul64(p0, m)
	h1, l1 = bits.Mul64(p1, m)
	h2, l2 = bits.Mul64(p2, m)
	h3, l3 = bits.Mul64(p3, m)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	_, cc = bits.Add64(w1, l0, 0)
	w2, cc = bits.Add64(w2, l1, cc)
	w3, cc = bits.Add64(w3, l2, cc)
	w4, cc = bits.Add64(w4, l3, cc)
	w5, cc = bits.Add64(w5, h3, cc)
	w6, cc = bits.Add64(w6, 0, cc)
	w7 += cc

	m = w2 * inv
	h0, l0 = bits.Mul64(p0, m)
	h1, l1 = bits.Mul64(p1, m)
	h2, l2 = bits.Mul64(p2, m)
	h3, l3 = bits.Mul64(p3, m)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	_, cc = bits.Add64(w2, l0, 0)
	w3, cc = bits.Add64(w3, l1, cc)
	w4, cc = bits.Add64(w4, l2, cc)
	w5, cc = bits.Add64(w5, l3, cc)
	w6, cc = bits.Add64(w6, h3, cc)
	w7 += cc

	m = w3 * inv
	h0, l0 = bits.Mul64(p0, m)
	h1, l1 = bits.Mul64(p1, m)
	h2, l2 = bits.Mul64(p2, m)
	h3, l3 = bits.Mul64(p3, m)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	_, cc = bits.Add64(w3, l0, 0)
	w4, cc = bits.Add64(w4, l1, cc)
	w5, cc = bits.Add64(w5, l2, cc)
	w6, cc = bits.Add64(w6, l3, cc)
	w7 += h3 + cc

	*c = gfP{w4, w5, w6, w7}
	carrySub((*[4]uint64)(c), &pLimbs)
}

// --- methods ---

func (e *gfP) Set(a *gfP) *gfP {
	*e = *a
	return e
}

func (e *gfP) SetZero() *gfP {
	*e = gfP{}
	return e
}

func (e *gfP) SetOne() *gfP {
	*e = rOne
	return e
}

func (e *gfP) IsZero() bool { return *e == gfP{} }

func (e *gfP) IsOne() bool { return *e == rOne }

func (e *gfP) Equal(a *gfP) bool { return *e == *a }

// SetBig sets e to v mod p (Montgomery encoding).
func (e *gfP) SetBig(v *big.Int) *gfP {
	m := new(big.Int).Mod(v, pBig)
	raw := gfP(limbsFromBig(m))
	gfpMul(e, &raw, &r2)
	return e
}

// SetInt64 sets e to the small integer v.
func (e *gfP) SetInt64(v int64) *gfP { return e.SetBig(big.NewInt(v)) }

// canonical returns the canonical (non-Montgomery) limbs of e.
func (e *gfP) canonical() [4]uint64 {
	var raw, one gfP
	one[0] = 1
	gfpMul(&raw, e, &one)
	return [4]uint64(raw)
}

// Big returns the canonical value of e as a fresh big.Int (Montgomery
// decoding).
func (e *gfP) Big() *big.Int {
	var buf [32]byte
	e.Marshal(buf[:])
	return new(big.Int).SetBytes(buf[:])
}

// IsOdd reports the parity of the canonical value of e (the Bit(0) used by
// the compressed encodings' sign flags).
func (e *gfP) IsOdd() bool { return e.canonical()[0]&1 == 1 }

// Marshal writes the canonical 32-byte big-endian encoding into out.
func (e *gfP) Marshal(out []byte) {
	raw := e.canonical()
	for i := 0; i < 4; i++ {
		v := raw[3-i]
		for j := 7; j >= 0; j-- {
			out[i*8+j] = byte(v)
			v >>= 8
		}
	}
}

// Unmarshal decodes a canonical 32-byte big-endian value, rejecting
// encodings >= p.
func (e *gfP) Unmarshal(data []byte) error {
	raw := gfP(limbsFromBytes(data))
	if !limbsLess(raw, pLimbs) {
		return errMalformedPoint
	}
	gfpMul(e, &raw, &r2)
	return nil
}

// Invert sets e = 1/a mod p. It panics on zero (division by zero in a
// cryptographic computation is a programming error). a holds the Montgomery
// form aR, so modInverse with fix = R^2 returns R/a, the Montgomery form of
// the inverse.
func (e *gfP) Invert(a *gfP) *gfP {
	if a.IsZero() {
		panic("bn256: inverse of zero in Fp")
	}
	*e = gfP(modInverse((*[4]uint64)(a), (*[4]uint64)(&r2), &pLimbs, np))
	return e
}

// modInverse returns fix/a mod m for a non-zero a in [0, m) and fix below m.
// This is Kaliski's Montgomery inverse on the limbs, walking the same binary
// gcd as Legendre: with cx, cn the cofactors of x and n,
//
//	a*cx = s*x*2^k,  a*cn = -s*n*2^k  (mod m),  cx*n + cn*x = m,
//
// for a sign s, from (x, n, cx, cn, k) = (a, m, 1, 0, 0) down to x = 0,
// n = 1, where cn = -s*2^k/a and k, the halvings made, is at most 508. The
// second equation keeps both cofactors at or below m.
func modInverse(a, fix, m *[4]uint64, inv uint64) [4]uint64 {
	x, n := *a, *m
	cx, cn := [4]uint64{1}, [4]uint64{}
	var k uint
	var neg uint64 // all ones when s = -1
	for x != [4]uint64{} {
		// Halve x until odd, doubling the other cofactor alongside.
		for x[0] == 0 {
			x = [4]uint64{x[1], x[2], x[3], 0}
			cn = [4]uint64{0, cn[0], cn[1], cn[2]}
			k += 64
		}
		z := uint(bits.TrailingZeros64(x[0]))
		x[0] = x[0]>>z | x[1]<<(64-z)
		x[1] = x[1]>>z | x[2]<<(64-z)
		x[2] = x[2]>>z | x[3]<<(64-z)
		x[3] >>= z
		cn[3] = cn[3]<<z | cn[2]>>(64-z)
		cn[2] = cn[2]<<z | cn[1]>>(64-z)
		cn[1] = cn[1]<<z | cn[0]>>(64-z)
		cn[0] <<= z
		k += z

		// (x, n) = (|x-n|, min(x, n)) as in Legendre; a swap exchanges the
		// cofactors and the sign, and the subtraction adds cn into cx.
		var d [4]uint64
		var b uint64
		d[0], b = bits.Sub64(x[0], n[0], 0)
		d[1], b = bits.Sub64(x[1], n[1], b)
		d[2], b = bits.Sub64(x[2], n[2], b)
		d[3], b = bits.Sub64(x[3], n[3], b)
		swap := -b
		neg ^= swap
		for i := range n {
			n[i] ^= (n[i] ^ x[i]) & swap
			t := (cx[i] ^ cn[i]) & swap
			cx[i] ^= t
			cn[i] ^= t
		}
		x[0], b = bits.Add64(d[0]^swap, b, 0)
		x[1], b = bits.Add64(d[1]^swap, 0, b)
		x[2], b = bits.Add64(d[2]^swap, 0, b)
		x[3], _ = bits.Add64(d[3]^swap, 0, b)
		cx[0], b = bits.Add64(cx[0], cn[0], 0)
		cx[1], b = bits.Add64(cx[1], cn[1], b)
		cx[2], b = bits.Add64(cx[2], cn[2], b)
		cx[3], _ = bits.Add64(cx[3], cn[3], b)
	}

	// cn = -s * 2^k / a, so fix/a = -s * cn * fix / 2^k
	// = -s * mont(mont(cn, 2^(512-k)), fix), once k >= 257 keeps the power of
	// two below 2^256.
	carrySub(&cn, m)
	for ; k < 257; k++ {
		modAdd(&cn, &cn, &cn, m)
	}
	var pow2, out [4]uint64
	pow2[(512-k)/64] = 1 << ((512 - k) % 64)
	montMul(&cn, &cn, &pow2, m, inv)
	montMul(&out, fix, &cn, m, inv)
	if neg == 0 {
		modNeg(&out, &out, m)
	}
	return out
}

// batchInvert replaces every element of v, none of them zero, by its inverse
// with one field inversion and 3(len(v)-1) multiplications (Montgomery's
// trick). prefix is scratch of at least len(v) elements.
func batchInvert(v, prefix []gfP) {
	if len(v) == 0 {
		return
	}
	acc := rOne
	for i := range v {
		prefix[i] = acc // the product of v[:i]
		gfpMul(&acc, &acc, &v[i])
	}
	acc.Invert(&acc)
	for i := len(v) - 1; i >= 0; i-- {
		var inv gfP
		gfpMul(&inv, &acc, &prefix[i])
		gfpMul(&acc, &acc, &v[i])
		v[i] = inv
	}
}

// Exp sets e = a^k with a fixed 4-bit window: 14 multiplications build
// a^2..a^15, then each four squarings are followed by at most one
// multiplication (k is a non-negative canonical exponent below 2^256, not a
// field element).
func (e *gfP) Exp(a *gfP, k *big.Int) *gfP {
	var pow [16]gfP
	pow[1] = *a
	for i := 2; i < 16; i++ {
		gfpMul(&pow[i], &pow[i-1], a)
	}
	limbs := limbsFromBig(k)
	sum := rOne
	for bit := (k.BitLen() - 1) &^ 3; bit >= 0; bit -= 4 {
		gfpSquare(&sum, &sum)
		gfpSquare(&sum, &sum)
		gfpSquare(&sum, &sum)
		gfpSquare(&sum, &sum)
		if d := scalarDigit(limbs[:], bit, 4); d != 0 {
			gfpMul(&sum, &sum, &pow[d])
		}
	}
	*e = sum
	return e
}

// Legendre returns the Legendre symbol (e/p): 1 for a non-zero square, -1
// for a non-residue, 0 for zero. It runs the binary Jacobi algorithm on the
// limbs, a small fraction of the exponentiation Sqrt costs; the Montgomery
// factor R = (2^128)^2 is a square and does not change the symbol.
func (e *gfP) Legendre() int {
	x, n := [4]uint64(*e), pLimbs
	var flip uint64 // bit 0: the symbol is negative
	for x != [4]uint64{} {
		// Make x odd. (2/n) = -1 exactly when n = 3 or 5 mod 8, i.e. when
		// bits 1 and 2 of n differ; whole zero limbs are an even power.
		for x[0] == 0 {
			x = [4]uint64{x[1], x[2], x[3], 0}
		}
		z := uint(bits.TrailingZeros64(x[0]))
		x[0] = x[0]>>z | x[1]<<(64-z)
		x[1] = x[1]>>z | x[2]<<(64-z)
		x[2] = x[2]>>z | x[3]<<(64-z)
		x[3] >>= z
		flip ^= uint64(z) & (n[0]>>1 ^ n[0]>>2)

		// (x, n) = (|x-n|, min(x, n)) without a data-dependent branch.
		// Taking the smaller as n swaps the pair, and reciprocity flips
		// the sign when both are 3 mod 4.
		var d [4]uint64
		var b uint64
		d[0], b = bits.Sub64(x[0], n[0], 0)
		d[1], b = bits.Sub64(x[1], n[1], b)
		d[2], b = bits.Sub64(x[2], n[2], b)
		d[3], b = bits.Sub64(x[3], n[3], b)
		swap := -b
		flip ^= swap & ((x[0] & n[0]) >> 1)
		n[0] ^= (n[0] ^ x[0]) & swap
		n[1] ^= (n[1] ^ x[1]) & swap
		n[2] ^= (n[2] ^ x[2]) & swap
		n[3] ^= (n[3] ^ x[3]) & swap
		x[0], b = bits.Add64(d[0]^swap, b, 0)
		x[1], b = bits.Add64(d[1]^swap, 0, b)
		x[2], b = bits.Add64(d[2]^swap, 0, b)
		x[3], _ = bits.Add64(d[3]^swap, 0, b)
	}
	if n != [4]uint64{1} {
		return 0
	}
	return 1 - 2*int(flip&1)
}

// Sqrt sets e to a square root of a and returns e, or returns nil if a is a
// quadratic non-residue. p = 3 mod 4, so a^((p+1)/4) is a root whenever one
// exists.
func (e *gfP) Sqrt(a *gfP) *gfP {
	var r, chk gfP
	r.Exp(a, pPlus1Over4)
	gfpSquare(&chk, &r)
	if chk != *a {
		return nil
	}
	*e = r
	return e
}

func (e *gfP) String() string { return e.Big().String() }
