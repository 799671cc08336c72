package bn256

import (
	"io"
	"math/big"
)

// Group operations, encodings and a reference final exponentiation that
// only the tests use: as oracles, for the golden vectors and for fuzzing.
// The package itself needs none of them.

// G2CompressedSize is the length of G2's compressed encoding.
const G2CompressedSize = 64

// SetInfinity sets e to the identity element.
func (e *G1) SetInfinity() *G1 {
	e.ensure()
	e.p.SetInfinity()
	return e
}

// Unmarshal decodes an uncompressed encoding, validating curve membership.
func (e *G1) Unmarshal(data []byte) error {
	if len(data) != g1UncompressedSize {
		return errMalformedPoint
	}
	e.ensure()
	if allZero(data) {
		e.p.SetInfinity()
		return nil
	}
	var x, y gfP
	if err := x.Unmarshal(data[:32]); err != nil {
		return err
	}
	if err := y.Unmarshal(data[32:]); err != nil {
		return err
	}
	e.p.SetAffine(&x, &y)
	if !e.p.IsOnCurve() {
		return errMalformedPoint
	}
	return nil
}

// ScalarMult sets e = k*a and returns e.
func (e *G2) ScalarMult(a *G2, k *big.Int) *G2 {
	e.ensure()
	e.p.Mul(a.point(), k)
	return e
}

// Add sets e = a+b and returns e.
func (e *G2) Add(a, b *G2) *G2 {
	e.ensure()
	e.p.Add(a.point(), b.point())
	return e
}

// Neg sets e = -a and returns e.
func (e *G2) Neg(a *G2) *G2 {
	e.ensure()
	e.p.Neg(a.point())
	return e
}

// Set sets e = a and returns e.
func (e *G2) Set(a *G2) *G2 {
	e.ensure()
	e.p.Set(a.point())
	return e
}

// SetInfinity sets e to the identity element.
func (e *G2) SetInfinity() *G2 {
	e.ensure()
	e.p.SetInfinity()
	return e
}

// Set sets e = a and returns e.
func (e *GT) Set(a *GT) *GT {
	e.ensure()
	e.p.Set(a.point())
	return e
}

// Unmarshal decodes a 384-byte encoding. It validates field-element ranges
// and membership in the order-n subgroup.
func (e *GT) Unmarshal(data []byte) error {
	if len(data) != gtUncompressedSize {
		return errMalformedPoint
	}
	e.ensure()
	for i, c := range e.p.coeffs() {
		if err := c.Unmarshal(data[i*32 : (i+1)*32]); err != nil {
			return err
		}
	}
	if !e.p.hasOrderN() {
		return errMalformedPoint
	}
	return nil
}

// PairingCheck reports whether the product of pairings over all pairs is the
// identity, sharing one final exponentiation.
func PairingCheck(a []*G1, b []*G2) bool {
	if len(a) != len(b) {
		return false
	}
	acc := newGFp12().SetOne()
	for i := range a {
		acc.Mul(acc, miller(b[i].point(), a[i].point()))
	}
	return finalExponentiationFast(acc).IsOne()
}

// RandomG1 returns k and g1^k for uniformly random k in [1, n).
func RandomG1(r io.Reader) (Scalar, *G1, error) {
	var k Scalar
	if err := k.SetRandom(r); err != nil {
		return k, nil, err
	}
	return k, new(G1).ScalarBaseMult(k.Big()), nil
}

// RandomG2 returns k and g2^k for uniformly random k in [1, n).
func RandomG2(r io.Reader) (Scalar, *G2, error) {
	var k Scalar
	if err := k.SetRandom(r); err != nil {
		return k, nil, err
	}
	return k, new(G2).ScalarBaseMult(k.Big()), nil
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

// Compressed G2 encoding: the Fp2 x-coordinate (64 bytes) with flag bits
// packed into the spare top bits of the first coordinate, mirroring the G1
// format. The y root is selected by a parity bit: the parity of y.y, or of
// y.x when y.y = 0 (the two roots y and -y always differ in any non-zero
// component).

// MarshalCompressed encodes e in 64 bytes.
func (e *G2) MarshalCompressed() []byte {
	out := make([]byte, G2CompressedSize)
	if e.isInfinity() {
		out[0] = flagInfinity
		return out
	}
	x, y := e.p.Affine()
	x.x.Marshal(out[:32])
	x.y.Marshal(out[32:])
	if twistYParity(y) {
		out[0] |= flagYOdd
	}
	return out
}

// UnmarshalCompressed decodes a 64-byte compressed encoding, validating
// curve and subgroup membership.
func (e *G2) UnmarshalCompressed(data []byte) error {
	if len(data) != G2CompressedSize {
		return errMalformedPoint
	}
	e.ensure()
	if data[0]&flagInfinity != 0 {
		// Canonical infinity is exactly the flag byte followed by zeros.
		if data[0] != flagInfinity || !allZero(data[1:]) {
			return errMalformedPoint
		}
		e.p.SetInfinity()
		return nil
	}
	wantOdd := data[0]&flagYOdd != 0
	raw := make([]byte, 32)
	copy(raw, data[:32])
	raw[0] &^= flagYOdd | flagInfinity

	x := newGFp2()
	if err := x.x.Unmarshal(raw); err != nil {
		return err
	}
	if err := x.y.Unmarshal(data[32:]); err != nil {
		return err
	}
	y2 := newGFp2().Square(x)
	y2.Mul(y2, x)
	y2.Add(y2, twistB)
	y := sqrtFp2(y2)
	if y == nil {
		return errMalformedPoint
	}
	if twistYParity(y) != wantOdd {
		y.Neg(y)
	}
	e.p.SetAffine(x, y)
	if !newTwistPoint().Mul(e.p, Order).IsInfinity() {
		return errMalformedPoint
	}
	return nil
}

// twistYParity returns the canonical sign bit of a twist y-coordinate.
func twistYParity(y *gfP2) bool {
	if !y.y.IsZero() {
		return y.y.IsOdd()
	}
	return y.x.IsOdd()
}

// Field-element method forms of the limb kernels and tower operations that
// only the tests call.

func (e *gfP) Add(a, b *gfP) *gfP {
	gfpAdd(e, a, b)
	return e
}

func (e *gfP) Sub(a, b *gfP) *gfP {
	gfpSub(e, a, b)
	return e
}

func (e *gfP) Neg(a *gfP) *gfP {
	gfpNeg(e, a)
	return e
}

func (e *gfP) Double(a *gfP) *gfP {
	gfpDouble(e, a)
	return e
}

func (e *gfP) Mul(a, b *gfP) *gfP {
	gfpMul(e, a, b)
	return e
}

func (e *gfP) Square(a *gfP) *gfP {
	gfpSquare(e, a)
	return e
}

func (e *gfP12) Neg(a *gfP12) *gfP12 {
	e.x.Neg(&a.x)
	e.y.Neg(&a.y)
	return e
}

func (e *gfP12) Add(a, b *gfP12) *gfP12 {
	e.x.Add(&a.x, &b.x)
	e.y.Add(&a.y, &b.y)
	return e
}

func (e *gfP12) Sub(a, b *gfP12) *gfP12 {
	e.x.Sub(&a.x, &b.x)
	e.y.Sub(&a.y, &b.y)
	return e
}

// SetScalar embeds a base-field element.
func (e *gfP2) SetScalar(a *gfP) *gfP2 {
	e.x.SetZero()
	e.y.Set(a)
	return e
}

// SetBigs sets e from canonical big.Int coefficients.
func (e *gfP2) SetBigs(x, y *big.Int) *gfP2 {
	e.x.SetBig(x)
	e.y.SetBig(y)
	return e
}

func (e *gfP6) Equal(a *gfP6) bool { return *e == *a }
