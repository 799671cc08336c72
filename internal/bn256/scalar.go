package bn256

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"math/bits"
)

// Inside the package a scalar is an integer in [0, n) held as four
// little-endian 64-bit limbs: a Scalar is those limbs, a big.Int stops at the
// entry of each method that takes one (scalarFromBig), and the GLV
// decomposition, the digit readers and the fixed-base table all run on the
// limbs, with no allocation and no dependence on the platform's word size.

// errNonCanonicalScalar is returned by Scalar.SetBytes on an encoding of a
// value n or more, or longer than 32 bytes.
var errNonCanonicalScalar = errors.New("bn256: non-canonical scalar encoding")

var (
	// nLimbs is the group order n as limbs.
	nLimbs [4]uint64

	// nInv is -n^-1 mod 2^64; nR2 and nR576 are 2^512 and 2^576 mod n. They
	// are montMul's and reduceWide's constants mod n.
	nInv       uint64
	nR2, nR576 [4]uint64
)

// initScalar derives the mod-n constants from Order (constants.go calls it
// from init).
func initScalar() {
	nLimbs = limbsFromBig(Order)
	nInv = montInv64(nLimbs[0])
	nR2 = limbsFromBig(new(big.Int).Mod(new(big.Int).Lsh(bigOne, 512), Order))
	nR576 = limbsFromBig(new(big.Int).Mod(new(big.Int).Lsh(bigOne, 576), Order))
}

// Scalar is an element of Zn, n = Order: the field the paper's data blocks,
// chunk polynomials and their evaluations live in. It is a value type, the
// canonical residue in [0, n) as four little-endian 64-bit limbs, so a slice
// of Scalars is one flat allocation, a copy is an assignment and == is
// equality. The zero value is 0. Products and inverses run mod n on the same
// kernels as the base field (montMul, modInverse); bytes and big.Int appear
// only at the boundary (SetBytes, Bytes, SetBig, Big).
type Scalar struct{ l [4]uint64 }

// SetUint64 sets z = v and returns z.
func (z *Scalar) SetUint64(v uint64) *Scalar {
	z.l = [4]uint64{v}
	return z
}

// SetRandom sets z to a uniform element of Zn \ {0} read from r, crypto/rand
// if r is nil. A draw reads 32 bytes, clears the top two (n - 1 has 254 bits)
// and is kept if it is below n and not zero: crypto/rand.Int's rule, so a
// seeded reader yields what rand.Int(r, Order) yields, zeros skipped. On a
// read error z is left as it was.
func (z *Scalar) SetRandom(r io.Reader) error {
	if r == nil {
		r = rand.Reader
	}
	var buf [32]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return err
		}
		buf[0] &= 0x3f
		if v := limbsFromBytes(buf[:]); limbsLess(v, nLimbs) && v != [4]uint64{} {
			z.l = v
			return nil
		}
	}
}

// SetBytesWide sets z = b mod n, b read as a 512-bit big-endian integer, and
// returns z: a 64-byte hash output reduced to Zn with bias below 2^-256.
func (z *Scalar) SetBytesWide(b *[64]byte) *Scalar {
	var w [9]uint64
	for i := 0; i < 8; i++ {
		w[i] = binary.BigEndian.Uint64(b[56-8*i:])
	}
	z.l = reduceWide(&w)
	return z
}

// setBig sets z = k mod n and returns z.
func (z *Scalar) setBig(k *big.Int) *Scalar {
	z.l = scalarFromBig(k)
	return z
}

// Big returns z as a fresh big.Int.
func (z Scalar) Big() *big.Int {
	b := z.Bytes()
	return new(big.Int).SetBytes(b[:])
}

// SetBytes sets z to the big-endian value of b, at most 32 bytes. A value of
// n or more, or a longer b, returns ErrNonCanonicalScalar and leaves z as it
// was: each element has one encoding.
func (z *Scalar) SetBytes(b []byte) error {
	if len(b) > 32 {
		return errNonCanonicalScalar
	}
	var buf [32]byte
	copy(buf[32-len(b):], b)
	v := limbsFromBytes(buf[:])
	if !limbsLess(v, nLimbs) {
		return errNonCanonicalScalar
	}
	z.l = v
	return nil
}

// Bytes returns the 32-byte big-endian encoding of z.
func (z Scalar) Bytes() [32]byte {
	var out [32]byte
	for i, v := range z.l {
		binary.BigEndian.PutUint64(out[24-8*i:], v)
	}
	return out
}

// IsZero reports whether z = 0.
func (z Scalar) IsZero() bool { return z.l == [4]uint64{} }

// Add sets z = a + b mod n and returns z.
func (z *Scalar) Add(a, b *Scalar) *Scalar {
	modAdd(&z.l, &a.l, &b.l, &nLimbs)
	return z
}

// Sub sets z = a - b mod n and returns z.
func (z *Scalar) Sub(a, b *Scalar) *Scalar {
	modSub(&z.l, &a.l, &b.l, &nLimbs)
	return z
}

// Neg sets z = -a mod n and returns z.
func (z *Scalar) Neg(a *Scalar) *Scalar {
	modNeg(&z.l, &a.l, &nLimbs)
	return z
}

// Mul sets z = a * b mod n and returns z. The Montgomery product of the
// canonical operands is ab/R; a second one by R^2 brings it back.
func (z *Scalar) Mul(a, b *Scalar) *Scalar {
	var t [4]uint64
	montMul(&t, &a.l, &b.l, &nLimbs, nInv)
	montMul(&z.l, &nR2, &t, &nLimbs, nInv)
	return z
}

// Inv sets z = 1/a mod n and returns z. It panics on zero, which is always a
// caller's bug.
func (z *Scalar) Inv(a *Scalar) *Scalar {
	if a.IsZero() {
		panic("bn256: inverse of zero scalar")
	}
	one := [4]uint64{1}
	z.l = modInverse(&a.l, &one, &nLimbs, nInv)
	return z
}

func (z Scalar) String() string { return z.Big().String() }

// scalarsFromBig returns v[i] mod n for every i.
func scalarsFromBig(v []*big.Int) []Scalar {
	out := make([]Scalar, len(v))
	for i, k := range v {
		out[i].setBig(k)
	}
	return out
}

// ScalarLinearCombination sets dst[j] = sum_i c[i] v[i][j] mod n for every j;
// each v[i] holds len(dst) scalars. A sum stays unreduced in nine words --
// fewer than 2^63 terms below n^2 < 2^508 stay below 2^571 -- and is reduced
// once (reduceWide), so a term costs its word products and additions only. A
// c[i] below 2^128, such as a challenge coefficient, takes half the products.
func ScalarLinearCombination(dst, c []Scalar, v [][]Scalar) {
	if len(c) != len(v) {
		panic("bn256: ScalarLinearCombination: coefficient and vector counts differ")
	}
	acc := make([][9]uint64, len(dst))
	for i, row := range v {
		if len(row) != len(acc) {
			panic("bn256: ScalarLinearCombination: vector length differs from dst")
		}
		ci := &c[i].l
		switch {
		case ci[2]|ci[3] != 0:
			for j := range row {
				mulAdd4(&acc[j], ci, &row[j].l)
			}
		case ci[0]|ci[1] != 0:
			for j := range row {
				mulAdd2(&acc[j], ci, &row[j].l)
			}
		}
	}
	for j := range acc {
		dst[j].l = reduceWide(&acc[j])
	}
}

// mulAdd2 adds c*x into acc for c below 2^128: two rows of word products,
// six words in all.
func mulAdd2(acc *[9]uint64, c, x *[4]uint64) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var h0, h1, h2, h3, l0, l1, l2, l3, cc uint64

	v := c[0]
	h0, p0 := bits.Mul64(v, x0)
	h1, l1 = bits.Mul64(v, x1)
	h2, l2 = bits.Mul64(v, x2)
	h3, l3 = bits.Mul64(v, x3)
	p1, cc := bits.Add64(l1, h0, 0)
	p2, cc := bits.Add64(l2, h1, cc)
	p3, cc := bits.Add64(l3, h2, cc)
	p4 := h3 + cc

	v = c[1]
	h0, l0 = bits.Mul64(v, x0)
	h1, l1 = bits.Mul64(v, x1)
	h2, l2 = bits.Mul64(v, x2)
	h3, l3 = bits.Mul64(v, x3)
	l1, cc = bits.Add64(l1, h0, 0)
	l2, cc = bits.Add64(l2, h1, cc)
	l3, cc = bits.Add64(l3, h2, cc)
	h3 += cc
	p1, cc = bits.Add64(p1, l0, 0)
	p2, cc = bits.Add64(p2, l1, cc)
	p3, cc = bits.Add64(p3, l2, cc)
	p4, cc = bits.Add64(p4, l3, cc)
	p5 := h3 + cc

	acc[0], cc = bits.Add64(acc[0], p0, 0)
	acc[1], cc = bits.Add64(acc[1], p1, cc)
	acc[2], cc = bits.Add64(acc[2], p2, cc)
	acc[3], cc = bits.Add64(acc[3], p3, cc)
	acc[4], cc = bits.Add64(acc[4], p4, cc)
	acc[5], cc = bits.Add64(acc[5], p5, cc)
	acc[6], cc = bits.Add64(acc[6], 0, cc)
	acc[7], cc = bits.Add64(acc[7], 0, cc)
	acc[8] += cc
}

// mulAdd4 adds c*x into acc: four rows of word products, eight words in all.
func mulAdd4(acc *[9]uint64, c, x *[4]uint64) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var p [8]uint64
	var h0, h1, h2, h3, l0, l1, l2, l3, cc uint64
	for i, v := range c {
		h0, l0 = bits.Mul64(v, x0)
		h1, l1 = bits.Mul64(v, x1)
		h2, l2 = bits.Mul64(v, x2)
		h3, l3 = bits.Mul64(v, x3)
		l1, cc = bits.Add64(l1, h0, 0)
		l2, cc = bits.Add64(l2, h1, cc)
		l3, cc = bits.Add64(l3, h2, cc)
		h3 += cc
		p[i], cc = bits.Add64(p[i], l0, 0)
		p[i+1], cc = bits.Add64(p[i+1], l1, cc)
		p[i+2], cc = bits.Add64(p[i+2], l2, cc)
		p[i+3], cc = bits.Add64(p[i+3], l3, cc)
		p[i+4] = h3 + cc
	}
	acc[0], cc = bits.Add64(acc[0], p[0], 0)
	acc[1], cc = bits.Add64(acc[1], p[1], cc)
	acc[2], cc = bits.Add64(acc[2], p[2], cc)
	acc[3], cc = bits.Add64(acc[3], p[3], cc)
	acc[4], cc = bits.Add64(acc[4], p[4], cc)
	acc[5], cc = bits.Add64(acc[5], p[5], cc)
	acc[6], cc = bits.Add64(acc[6], p[6], cc)
	acc[7], cc = bits.Add64(acc[7], p[7], cc)
	acc[8] += cc
}

// reduceWide returns w mod n for w below 2^571, overwriting w. Five
// Montgomery rounds clear its low five words, leaving t = w/2^320 mod n below
// 2^251 + n in the top four, and one montMul by 2^576 mod n undoes the
// division: t * 2^576 / 2^256 = w.
func reduceWide(w *[9]uint64) [4]uint64 {
	n0, n1, n2, n3 := nLimbs[0], nLimbs[1], nLimbs[2], nLimbs[3]
	for i := 0; i < 5; i++ {
		q := w[i] * nInv
		h0, l0 := bits.Mul64(q, n0)
		h1, l1 := bits.Mul64(q, n1)
		h2, l2 := bits.Mul64(q, n2)
		h3, l3 := bits.Mul64(q, n3)
		l1, cc := bits.Add64(l1, h0, 0)
		l2, cc = bits.Add64(l2, h1, cc)
		l3, cc = bits.Add64(l3, h2, cc)
		h3 += cc
		_, cc = bits.Add64(w[i], l0, 0) // zero, by the choice of q
		w[i+1], cc = bits.Add64(w[i+1], l1, cc)
		w[i+2], cc = bits.Add64(w[i+2], l2, cc)
		w[i+3], cc = bits.Add64(w[i+3], l3, cc)
		w[i+4], cc = bits.Add64(w[i+4], h3, cc)
		for k := i + 5; k < len(w); k++ {
			w[k], cc = bits.Add64(w[k], 0, cc)
		}
	}
	t := [4]uint64{w[5], w[6], w[7], w[8]}
	var out [4]uint64
	montMul(&out, &nR576, &t, &nLimbs, nInv)
	return out
}

// scalarFromBig returns k mod n. A k already in [0, 2^256) -- every
// coefficient the protocol derives is in [0, n) -- converts on the stack;
// only a negative or wider k pays for a big.Int division.
func scalarFromBig(k *big.Int) [4]uint64 {
	if k.Sign() < 0 || k.BitLen() > 256 {
		k = new(big.Int).Mod(k, Order)
	}
	v := limbsFromBig(k)
	for !limbsLess(v, nLimbs) { // 2^256 < 6n: at most five rounds
		var b uint64
		v[0], b = bits.Sub64(v[0], nLimbs[0], 0)
		v[1], b = bits.Sub64(v[1], nLimbs[1], b)
		v[2], b = bits.Sub64(v[2], nLimbs[2], b)
		v[3], _ = bits.Sub64(v[3], nLimbs[3], b)
	}
	return v
}

// limbsBitLen returns the bit length of the little-endian limbs.
func limbsBitLen(limbs []uint64) int {
	for i := len(limbs) - 1; i >= 0; i-- {
		if limbs[i] != 0 {
			return 64*i + bits.Len64(limbs[i])
		}
	}
	return 0
}

// scalarDigit extracts the width-bit digit of the little-endian limbs
// starting at bit position bit; bits past the last limb read as zero. width
// is at most 31, so a digit spans at most two limbs and fits an int on every
// platform.
func scalarDigit(limbs []uint64, bit, width int) int {
	idx := bit >> 6
	if idx >= len(limbs) {
		return 0
	}
	shift := uint(bit & 63)
	d := limbs[idx] >> shift
	if rem := 64 - shift; int(rem) < width && idx+1 < len(limbs) {
		d |= limbs[idx+1] << rem
	}
	return int(d & (1<<uint(width) - 1))
}

// boothDigit returns the signed digit of window w (c bits wide) of the
// limbs: it reads bits [wc-1, wc+c), counts the lowest once and the highest
// as -2^c, and lands in [-2^(c-1), 2^(c-1)]. The digits of all windows up to
// (bitLen+c)/c - 1 -- the top one must see a clear sign bit -- sum to the
// value.
func boothDigit(limbs []uint64, w, c int) int {
	var raw int
	if w == 0 {
		raw = scalarDigit(limbs, 0, c) << 1
	} else {
		raw = scalarDigit(limbs, w*c-1, c+1)
	}
	return (raw+1)>>1 - raw>>c<<c
}

// nafWindow is the width of the signed digits the two short-exponentiation
// walks read -- G1's interleaved sum (multiexp.go) and the cyclotomic one
// (cyclotomicMultiExp): nafRecode's digits are odd and below 2^(nafWindow-1)
// in magnitude where they are not zero, and any nafWindow consecutive ones
// hold at most one that is not.
const nafWindow = 5

// nafOdd is the size of a walk's table of its base's odd multiples 1, 3, ...,
// 2^(nafWindow-1) - 1: digit d > 0 reads entry d/2, digit -d its inverse.
const nafOdd = 1 << (nafWindow - 2)

// nafRecode writes the width-nafWindow non-adjacent form of the
// little-endian limbs to digits, least significant first -- the limbs'
// value is sum_i digits[i]*2^i -- and returns the number of digits up to the
// last non-zero one. digits is cleared first and must hold one digit more
// than the value has bits: a window whose digit is negative carries into the
// next, and the top one may carry past the last bit.
func nafRecode(digits []int8, limbs []uint64) int {
	clear(digits)
	n, carry := 0, 0
	for i, bitLen := 0, limbsBitLen(limbs); i < bitLen || carry != 0; {
		if bit := scalarDigit(limbs, i, 1); bit == carry {
			i++ // bit plus carry is even: digit zero, the carry moves up unchanged
			continue
		}
		d := scalarDigit(limbs, i, nafWindow) + carry // odd, below 2^nafWindow
		carry = 0
		if d > 1<<(nafWindow-1) {
			d, carry = d-1<<nafWindow, 1
		}
		digits[i] = int8(d)
		n = i + 1
		i += nafWindow
	}
	return n
}
