package bn256

import (
	"math/big"
	"sync"
)

// Fixed-base scalar multiplication of the G1 generator with an 8-bit
// windowed table of affine points: g1Table[w][d-1] = d * 2^(8w) * g1. A
// 254-bit scalar then costs at most 32 mixed additions and no doublings,
// where ScalarMult's GLV ladder on an arbitrary point pays ~128 doublings
// plus ~60 additions -- 6x faster, on the data owner's Setup, which performs
// one base multiplication per chunk (the Fig. 7 workload).
//
// The table (32 windows x 255 non-zero digits, 64 bytes each) is built
// lazily on first use so programs that never touch G1 base multiplications
// pay nothing.

const (
	fbWindowBits = 8
	fbWindows    = 32 // ceil(254 / 8)
	fbTableSize  = 1 << fbWindowBits
)

var (
	g1TableOnce sync.Once
	g1Table     [fbWindows][fbTableSize - 1]affinePoint
)

func buildG1Table() {
	jac := make([]curvePoint, fbWindows*(fbTableSize-1))
	ptrs := make([]*curvePoint, len(jac))
	base := newCurvePoint().Set(g1Gen)
	for w := 0; w < fbWindows; w++ {
		row := jac[w*(fbTableSize-1):][:fbTableSize-1]
		row[0] = *base
		for d := 1; d < len(row); d++ {
			row[d].Add(&row[d-1], base)
		}
		for i := 0; i < fbWindowBits; i++ {
			base.Double(base)
		}
	}
	for i := range jac {
		ptrs[i] = &jac[i]
	}
	makeAffineBatch(ptrs) // no entry is infinity: d * 2^(8w) < n
	for i := range jac {
		g1Table[i/(fbTableSize-1)][i%(fbTableSize-1)] = affinePoint{jac[i].x, jac[i].y}
	}
}

// mulBaseFixed computes (k mod n)*g1 via the window table.
func mulBaseFixed(k *big.Int) *curvePoint {
	g1TableOnce.Do(buildG1Table)
	limbs := scalarFromBig(k)
	acc := newCurvePoint().SetInfinity()
	entry := curvePoint{z: rOne}
	for w := 0; w < fbWindows; w++ {
		if d := scalarDigit(limbs[:], w*fbWindowBits, fbWindowBits); d != 0 {
			entry.x, entry.y = g1Table[w][d-1].x, g1Table[w][d-1].y
			acc.AddMixed(acc, &entry)
		}
	}
	return acc
}
