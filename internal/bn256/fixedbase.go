package bn256

import (
	"math/big"
	"sync"
)

// Fixed-base scalar multiplication of the G1 generator with an 8-bit
// windowed table: g1Table[w][d] = d * 2^(8w) * g1. A 254-bit scalar then
// costs at most 32 point additions and no doublings, where ScalarMult's GLV
// ladder on an arbitrary point pays ~128 doublings plus ~60 additions --
// 4-5x faster, on the data owner's Setup, which performs one base
// multiplication per chunk (the Fig. 7 workload).
//
// The table (32 windows x 255 non-zero digits) is built lazily on first use
// so programs that never touch G1 base multiplications pay nothing.

const (
	fbWindowBits = 8
	fbWindows    = 32 // ceil(254 / 8)
	fbTableSize  = 1 << fbWindowBits
)

var (
	g1TableOnce sync.Once
	g1Table     [][]*curvePoint
)

func buildG1Table() {
	g1Table = make([][]*curvePoint, fbWindows)
	base := newCurvePoint().Set(g1Gen)
	for w := 0; w < fbWindows; w++ {
		row := make([]*curvePoint, fbTableSize)
		row[0] = newCurvePoint().SetInfinity()
		for d := 1; d < fbTableSize; d++ {
			row[d] = newCurvePoint().Add(row[d-1], base)
		}
		g1Table[w] = row
		// base <<= 8
		for i := 0; i < fbWindowBits; i++ {
			base.Double(base)
		}
	}
}

// mulBaseFixed computes k*g1 via the window table.
func mulBaseFixed(k *big.Int) *curvePoint {
	g1TableOnce.Do(buildG1Table)
	e := new(big.Int).Mod(k, Order)
	words := e.Bits()
	acc := newCurvePoint().SetInfinity()
	for w := 0; w < fbWindows; w++ {
		d := scalarDigit(words, w*fbWindowBits, fbWindowBits)
		if d != 0 {
			acc.Add(acc, g1Table[w][d])
		}
	}
	return acc
}
