package bn256

import (
	"math/big"
	"math/bits"
)

// Inside the package a scalar is an integer in [0, n) held as four
// little-endian 64-bit limbs: big.Int stops at the entry of each exported
// method (scalarFromBig), and the GLV decomposition, the digit readers and
// the fixed-base table all run on the limbs, with no allocation and no
// dependence on the platform's word size.

// nLimbs is the group order n as limbs.
var nLimbs [4]uint64

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
