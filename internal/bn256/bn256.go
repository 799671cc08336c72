package bn256

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"

	"repro/internal/parallel"
)

// Sizes of the fixed-length encodings produced by the Marshal and Compress
// methods, in bytes.
const (
	G1UncompressedSize = 64  // x || y
	G1CompressedSize   = 32  // x with sign/infinity flags in the top bits
	G2UncompressedSize = 128 // x.x || x.y || y.x || y.y
	G2CompressedSize   = 64
	GTUncompressedSize = 384 // 12 Fp coefficients
	GTCompressedSize   = 192 // torus representation: 6 Fp coefficients
)

// Flag bits packed into the most significant byte of a compressed x
// coordinate. p has 254 bits, leaving the top two bits of a 32-byte
// big-endian encoding free.
const (
	flagYOdd     = 0x80 // set when the larger square root was chosen
	flagInfinity = 0x40
)

var (
	// ErrMalformedPoint is returned by Unmarshal methods on any encoding
	// that does not decode to a valid group element.
	ErrMalformedPoint = errors.New("bn256: malformed point encoding")
)

// G1 is an element of the prime-order group of points on y^2 = x^3 + 3
// over Fp. The zero value is the identity, as a receiver and as an operand;
// an operand is only ever read, so any number of goroutines may share one.
type G1 struct {
	p *curvePoint
}

// G2 is an element of the order-n subgroup of the sextic twist E'(Fp2). The
// zero value is the identity, and operands are only read, as for G1.
type G2 struct {
	p *twistPoint
}

// GT is an element of the order-n subgroup of Fp12* (the target group of
// the pairing). The zero value is the identity, and operands are only read,
// as for G1.
type GT struct {
	p *gfP12
}

// RandomG1 returns k and g1^k for uniformly random k in [1, n).
func RandomG1(r io.Reader) (*big.Int, *G1, error) {
	k, err := randomScalar(r)
	if err != nil {
		return nil, nil, err
	}
	return k, new(G1).ScalarBaseMult(k), nil
}

// RandomG2 returns k and g2^k for uniformly random k in [1, n).
func RandomG2(r io.Reader) (*big.Int, *G2, error) {
	k, err := randomScalar(r)
	if err != nil {
		return nil, nil, err
	}
	return k, new(G2).ScalarBaseMult(k), nil
}

func randomScalar(r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	for {
		k, err := rand.Int(r, Order)
		if err != nil {
			return nil, err
		}
		if k.Sign() != 0 {
			return k, nil
		}
	}
}

// GenG1 returns the canonical generator of G1 (the point (1, 2)). The
// underlying coordinates are copied, so the result is an ordinary mutable
// element; the copy costs a struct assignment, versus a full fixed-base
// scalar multiplication for ScalarBaseMult(1).
func GenG1() *G1 { return &G1{p: newCurvePoint().Set(g1Gen)} }

// GenG2 returns the canonical generator of the order-n subgroup of G2.
// Like GenG1 it returns a fresh copy; prefer it over ScalarBaseMult(1),
// which pays a full double-and-add ladder over Fp2.
func GenG2() *G2 { return &G2{p: newTwistPoint().Set(g2Gen)} }

// --- G1 ---

// The identities a zero-valued operand is read as (init sets them). Nothing
// writes to them: ensure, which materializes a zero value, is for the
// receiver a method is about to write, and operands go through point.
var (
	g1Identity *curvePoint
	g2Identity *twistPoint
	gtIdentity *gfP12
)

func (e *G1) ensure() *G1 {
	if e.p == nil {
		e.p = newCurvePoint().SetInfinity()
	}
	return e
}

func (e *G1) point() *curvePoint {
	if e.p == nil {
		return g1Identity
	}
	return e.p
}

// ScalarBaseMult sets e = k*g1 and returns e. It uses a precomputed
// fixed-base window table (see fixedbase.go), making it 4-5x faster than
// ScalarMult on an arbitrary point.
func (e *G1) ScalarBaseMult(k *big.Int) *G1 {
	e.ensure()
	e.p.Set(mulBaseFixed(k))
	return e
}

// ScalarMult sets e = k*a and returns e, k taken mod n (see glv.go).
func (e *G1) ScalarMult(a *G1, k *big.Int) *G1 {
	e.ensure()
	e.p.MulGLV(a.point(), k)
	return e
}

// Add sets e = a+b and returns e.
func (e *G1) Add(a, b *G1) *G1 {
	e.ensure()
	e.p.Add(a.point(), b.point())
	return e
}

// Neg sets e = -a and returns e.
func (e *G1) Neg(a *G1) *G1 {
	e.ensure()
	e.p.Neg(a.point())
	return e
}

// Set sets e = a and returns e.
func (e *G1) Set(a *G1) *G1 {
	e.ensure()
	e.p.Set(a.point())
	return e
}

// SetInfinity sets e to the identity element.
func (e *G1) SetInfinity() *G1 {
	e.ensure()
	e.p.SetInfinity()
	return e
}

// IsInfinity reports whether e is the identity.
func (e *G1) IsInfinity() bool { return e.p == nil || e.p.IsInfinity() }

// Equal reports whether e and a are the same group element.
func (e *G1) Equal(a *G1) bool {
	return e.point().Equal(a.point())
}

// NormalizeG1 rewrites every point's internal representation to affine form
// with one shared field inversion. The group elements and every encoding are
// unchanged; what changes is that Marshal and MarshalCompressed, which
// otherwise invert once per call, and MultiScalarMult then find nothing left
// to normalize. For whoever produces a long-lived slice of points (a key's
// powers, a file's authenticators) to call once, before sharing it.
func NormalizeG1(points []*G1) {
	ps := make([]*curvePoint, 0, len(points))
	for _, e := range points {
		if e.p != nil {
			ps = append(ps, e.p)
		}
	}
	makeAffineBatch(ps)
}

// Marshal encodes e uncompressed as x || y (64 bytes). Infinity encodes as
// all zeros.
func (e *G1) Marshal() []byte {
	out := make([]byte, G1UncompressedSize)
	if e.IsInfinity() {
		return out
	}
	x, y := e.p.Affine()
	x.Marshal(out[:32])
	y.Marshal(out[32:])
	return out
}

// allZero reports whether data is entirely zero bytes.
func allZero(data []byte) bool {
	for _, b := range data {
		if b != 0 {
			return false
		}
	}
	return true
}

// Unmarshal decodes an uncompressed encoding, validating curve membership.
func (e *G1) Unmarshal(data []byte) error {
	if len(data) != G1UncompressedSize {
		return ErrMalformedPoint
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
		return ErrMalformedPoint
	}
	return nil
}

// MarshalCompressed encodes e in 32 bytes: the x coordinate with the y
// parity in the top bit. This is the on-chain format counted by the paper
// (96-byte plain proofs, 288-byte private proofs).
func (e *G1) MarshalCompressed() []byte {
	out := make([]byte, G1CompressedSize)
	if e.IsInfinity() {
		out[0] = flagInfinity
		return out
	}
	x, y := e.p.Affine()
	x.Marshal(out)
	if y.IsOdd() {
		out[0] |= flagYOdd
	}
	return out
}

// UnmarshalCompressed decodes a 32-byte compressed encoding.
func (e *G1) UnmarshalCompressed(data []byte) error {
	if len(data) != G1CompressedSize {
		return ErrMalformedPoint
	}
	e.ensure()
	if data[0]&flagInfinity != 0 {
		// Canonical infinity is exactly the flag byte followed by zeros.
		if data[0] != flagInfinity || !allZero(data[1:]) {
			return ErrMalformedPoint
		}
		e.p.SetInfinity()
		return nil
	}
	yOdd := data[0]&flagYOdd != 0
	raw := make([]byte, 32)
	copy(raw, data)
	raw[0] &^= flagYOdd | flagInfinity
	var x, y2, y gfP
	if err := x.Unmarshal(raw); err != nil {
		return err
	}
	gfpMul(&y2, &x, &x)
	gfpMul(&y2, &y2, &x)
	gfpAdd(&y2, &y2, &gfpCurveB)
	if y.Sqrt(&y2) == nil {
		return ErrMalformedPoint
	}
	if y.IsOdd() != yOdd {
		gfpNeg(&y, &y)
	}
	e.p.SetAffine(&x, &y)
	return nil
}

// --- G2 ---

func (e *G2) ensure() *G2 {
	if e.p == nil {
		e.p = newTwistPoint().SetInfinity()
	}
	return e
}

func (e *G2) point() *twistPoint {
	if e.p == nil {
		return g2Identity
	}
	return e.p
}

// ScalarBaseMult sets e = k*g2 and returns e.
func (e *G2) ScalarBaseMult(k *big.Int) *G2 {
	e.ensure()
	e.p.Mul(g2Gen, k)
	return e
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

// IsInfinity reports whether e is the identity.
func (e *G2) IsInfinity() bool { return e.p == nil || e.p.IsInfinity() }

// Equal reports whether e and a are the same group element.
func (e *G2) Equal(a *G2) bool {
	return e.point().Equal(a.point())
}

// NormalizeG2 is NormalizeG1 for G2: Marshal and the Miller loop, which
// otherwise invert once per use, find the points affine. One inversion per
// point (a key holds two), for whoever creates them to call before sharing.
func NormalizeG2(points []*G2) {
	for _, e := range points {
		if e.p != nil {
			e.p.MakeAffine()
		}
	}
}

// Marshal encodes e uncompressed as x.x || x.y || y.x || y.y (128 bytes).
func (e *G2) Marshal() []byte {
	out := make([]byte, G2UncompressedSize)
	if e.IsInfinity() {
		return out
	}
	x, y := e.p.Affine()
	x.x.Marshal(out[0:32])
	x.y.Marshal(out[32:64])
	y.x.Marshal(out[64:96])
	y.y.Marshal(out[96:128])
	return out
}

// Unmarshal decodes an uncompressed encoding, validating twist-curve and
// subgroup membership (the twist has composite order, so the subgroup check
// is mandatory for soundness).
func (e *G2) Unmarshal(data []byte) error {
	if len(data) != G2UncompressedSize {
		return ErrMalformedPoint
	}
	e.ensure()
	x, y := newGFp2(), newGFp2()
	coords := []*gfP{&x.x, &x.y, &y.x, &y.y}
	zero := true
	for i, c := range coords {
		chunk := data[i*32 : (i+1)*32]
		if err := c.Unmarshal(chunk); err != nil {
			return err
		}
		if !allZero(chunk) {
			zero = false
		}
	}
	if zero {
		e.p.SetInfinity()
		return nil
	}
	e.p.SetAffine(x, y)
	if !e.p.IsOnCurve() {
		return ErrMalformedPoint
	}
	if !newTwistPoint().Mul(e.p, Order).IsInfinity() {
		return ErrMalformedPoint
	}
	return nil
}

// --- GT ---

func (e *GT) ensure() *GT {
	if e.p == nil {
		e.p = newGFp12().SetOne()
	}
	return e
}

func (e *GT) point() *gfP12 {
	if e.p == nil {
		return gtIdentity
	}
	return e.p
}

// ScalarMult sets e = a^(k mod n) and returns e. a must have order n -- what
// Pair, FinalExponentiate, Unmarshal and UnmarshalCompressed return, and
// their products and powers -- or be a raw MillerLoop value. The first is
// raised along the Frobenius split of k (gtsplit.go), which is wrong for an
// element of the cyclotomic subgroup outside GT; the second, typed GT too but
// not in the cyclotomic subgroup, where those formulas are wrong, keeps the
// generic ladder.
func (e *GT) ScalarMult(a *GT, k *big.Int) *GT {
	e.ensure()
	if ap := a.point(); ap.inCyclotomic() {
		ks := scalarFromBig(k)
		e.p.splitExp(ap, &ks)
	} else {
		// gfP12.Exp reads the bits of |k|, so -k would come out as a^k.
		e.p.Exp(ap, new(big.Int).Mod(k, Order))
	}
	return e
}

// MultiScalarMult sets e = prod_i a[i]^k[i] and returns e, each k taken mod n
// as in ScalarMult. The elements share one chain of cyclotomic squarings as
// long as the longest exponent, so beyond that chain an element costs a small
// table and one multiplication per four exponent bits: what a batch verifier
// pays to weight N commitments by 128-bit scalars is one ScalarMult's
// squarings, not N. An element outside the cyclotomic subgroup (a raw
// MillerLoop value) takes the generic ladder, as in ScalarMult. The inputs
// are only read. len(a) must equal len(k).
func (e *GT) MultiScalarMult(a []*GT, k []*big.Int) *GT {
	if len(a) != len(k) {
		panic("bn256: GT.MultiScalarMult length mismatch")
	}
	e.ensure()
	exps := make([][4]uint64, len(a))
	tables := make([]cycloTable, len(a))
	n := 0 // elements on the cyclotomic path
	generic := new(GT).SetOne()
	for i := range a {
		if ap := a[i].point(); ap.inCyclotomic() {
			exps[n] = scalarFromBig(k[i])
			tables[n].fill(ap)
			n++
		} else {
			generic.Add(generic, new(GT).ScalarMult(a[i], k[i]))
		}
	}
	e.p.cyclotomicMultiExp(exps[:n], tables[:n])
	return e.Add(e, generic)
}

// Add sets e = a*b (the group operation, written additively for API symmetry
// with G1/G2) and returns e.
func (e *GT) Add(a, b *GT) *GT {
	e.ensure()
	e.p.Mul(a.point(), b.point())
	return e
}

// Neg sets e = a^-1. In the cyclotomic subgroup inversion is conjugation.
func (e *GT) Neg(a *GT) *GT {
	e.ensure()
	e.p.Conjugate(a.point())
	return e
}

// Set sets e = a and returns e.
func (e *GT) Set(a *GT) *GT {
	e.ensure()
	e.p.Set(a.point())
	return e
}

// SetOne sets e to the identity element.
func (e *GT) SetOne() *GT {
	e.ensure()
	e.p.SetOne()
	return e
}

// IsOne reports whether e is the identity.
func (e *GT) IsOne() bool { return e.p == nil || e.p.IsOne() }

// Equal reports whether e and a are the same group element.
func (e *GT) Equal(a *GT) bool {
	return e.point().Equal(a.point())
}

// Marshal encodes e as 12 Fp coefficients (384 bytes), ordered from the
// omega part's tau^2 coefficient down to the constant term.
func (e *GT) Marshal() []byte {
	out := make([]byte, GTUncompressedSize)
	for i, c := range e.point().coeffs() {
		c.Marshal(out[i*32 : (i+1)*32])
	}
	return out
}

// coeffs lists the 12 Fp coefficients in marshalling order.
func (p *gfP12) coeffs() []*gfP {
	return []*gfP{
		&p.x.x.x, &p.x.x.y, &p.x.y.x, &p.x.y.y, &p.x.z.x, &p.x.z.y,
		&p.y.x.x, &p.y.x.y, &p.y.y.x, &p.y.y.y, &p.y.z.x, &p.y.z.y,
	}
}

// Unmarshal decodes a 384-byte encoding. It validates field-element ranges
// and membership in the order-n subgroup.
func (e *GT) Unmarshal(data []byte) error {
	if len(data) != GTUncompressedSize {
		return ErrMalformedPoint
	}
	e.ensure()
	for i, c := range e.p.coeffs() {
		if err := c.Unmarshal(data[i*32 : (i+1)*32]); err != nil {
			return err
		}
	}
	if !e.p.hasOrderN() {
		return ErrMalformedPoint
	}
	return nil
}

// MarshalCompressed encodes e in 192 bytes using the torus (T2)
// representation: for a norm-1 element r = x + y*omega with y != 0,
// a = (1+x)/y in Fp6 determines r = (a^2 + tau + 2a*omega)/(a^2 - tau).
// This is the compression that makes the paper's private proof 288 bytes
// (3 compressed G1 points + one compressed GT element).
//
// The identity and -1 (the only norm-1 elements with y = 0) are rejected:
// they never occur as the Sigma-protocol commitment R = e(g1, eps)^z with
// z != 0 (GT has prime order n, and -1 has order 2 which does not divide n).
func (e *GT) MarshalCompressed() ([]byte, error) {
	p := e.point()
	if p.x.IsZero() {
		return nil, errors.New("bn256: GT element with trivial omega part is not torus-compressible")
	}
	yInv := newGFp6().Invert(&p.x)
	a := newGFp6().SetOne()
	a.Add(a, &p.y)
	a.Mul(a, yInv)

	out := make([]byte, GTCompressedSize)
	cs := []*gfP{&a.x.x, &a.x.y, &a.y.x, &a.y.y, &a.z.x, &a.z.y}
	for i, c := range cs {
		c.Marshal(out[i*32 : (i+1)*32])
	}
	return out, nil
}

// UnmarshalCompressed decodes a 192-byte torus encoding and validates
// subgroup membership.
func (e *GT) UnmarshalCompressed(data []byte) error {
	if len(data) != GTCompressedSize {
		return ErrMalformedPoint
	}
	e.ensure()
	a := newGFp6()
	cs := []*gfP{&a.x.x, &a.x.y, &a.y.x, &a.y.y, &a.z.x, &a.z.y}
	for i, c := range cs {
		if err := c.Unmarshal(data[i*32 : (i+1)*32]); err != nil {
			return err
		}
	}
	// r = (a^2 + tau + 2a*omega) / (a^2 - tau)
	a2 := newGFp6().Mul(a, a)
	tau := newGFp6()
	tau.y.SetOne() // the element tau
	num := newGFp6().Add(a2, tau)
	den := newGFp6().Sub(a2, tau)
	if den.IsZero() {
		return ErrMalformedPoint
	}
	den.Invert(den)

	x := newGFp6().Add(a, a)
	x.Mul(x, den)
	y := newGFp6().Mul(num, den)
	e.p.x.Set(x)
	e.p.y.Set(y)
	if !e.p.hasOrderN() {
		return ErrMalformedPoint
	}
	return nil
}

// --- Pairing ---

// Pair computes the optimal ate pairing e(a, b).
func Pair(a *G1, b *G2) *GT {
	return &GT{p: pair(a.point(), b.point())}
}

// MillerLoop returns the unreduced pairing value of (a, b). Products of
// Miller loop outputs can share a single final exponentiation via
// FinalExponentiate, which is how the verifier folds the four pairings of
// the paper's Eq. 2 into one.
func MillerLoop(a *G1, b *G2) *GT {
	return &GT{p: miller(b.point(), a.point())}
}

// MillerBatch returns the product of the unreduced pairing values of all
// (a[i], b[i]) pairs, evaluating the per-pair Miller loops across at most
// workers goroutines (workers <= 0 selects GOMAXPROCS). The per-pair values
// land in index-keyed slots and are multiplied together serially in index
// order, so the product is identical to a loop of MillerLoop calls for any
// worker count. Like MillerLoop, the result awaits FinalExponentiate — this
// is how a batch verifier evaluates its loops (2K+1 for a block with K distinct
// owner keys) on every core while still paying for just one shared final
// exponentiation. len(a) must equal len(b).
func MillerBatch(a []*G1, b []*G2, workers int) *GT {
	if len(a) != len(b) {
		panic("bn256: MillerBatch length mismatch")
	}
	partials := make([]*gfP12, len(a))
	parallel.For(workers, len(a), func(i int) {
		partials[i] = miller(b[i].point(), a[i].point())
	})
	acc := newGFp12().SetOne()
	for _, f := range partials {
		acc.Mul(acc, f)
	}
	return &GT{p: acc}
}

// FinalExponentiate maps an unreduced pairing value into GT.
func FinalExponentiate(a *GT) *GT {
	return &GT{p: finalExponentiationFast(a.point())}
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
