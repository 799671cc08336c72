// Package ff provides arithmetic over the scalar field Zn of the BN254
// pairing groups (n = bn256.Order), which is the field the paper's data
// blocks, polynomial coefficients and challenge scalars live in.
//
// The functions here serve the protocol's scalars, which are still *big.Int
// values: keys, challenge coefficients, the Sigma-protocol's zeta and y'. They
// treat their inputs as residues and always return fully reduced results in
// [0, n). File data lives in bn256.Scalar, and the package's dense
// Gaussian-elimination solver, used by the on-chain leakage attack of the
// paper's Section V-C, runs on that type.
package ff

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"repro/internal/bn256"
)

// mod is the shared modulus; never mutated.
var mod = bn256.Order

// New returns v mod n as a fresh element.
func New(v int64) *big.Int {
	return new(big.Int).Mod(big.NewInt(v), mod)
}

// Reduce reduces v into [0, n) in place and returns it.
func Reduce(v *big.Int) *big.Int { return v.Mod(v, mod) }

// Add returns a+b mod n.
func Add(a, b *big.Int) *big.Int {
	return Reduce(new(big.Int).Add(a, b))
}

// Sub returns a-b mod n.
func Sub(a, b *big.Int) *big.Int {
	return Reduce(new(big.Int).Sub(a, b))
}

// Neg returns -a mod n.
func Neg(a *big.Int) *big.Int {
	return Reduce(new(big.Int).Neg(a))
}

// Mul returns a*b mod n.
func Mul(a, b *big.Int) *big.Int {
	return Reduce(new(big.Int).Mul(a, b))
}

// Inv returns 1/a mod n. It panics on a = 0, which always indicates a
// protocol-level bug rather than bad external input.
func Inv(a *big.Int) *big.Int {
	inv := new(big.Int).ModInverse(a, mod)
	if inv == nil {
		panic("ff: inverse of zero")
	}
	return inv
}

// Equal reports whether a = b as field elements. Inputs already reduced into
// [0, n) — the common case throughout the package, whose functions always
// return reduced values — compare directly without allocating; only
// out-of-range inputs pay for reduction copies.
func Equal(a, b *big.Int) bool {
	if a.Sign() >= 0 && b.Sign() >= 0 && a.Cmp(mod) < 0 && b.Cmp(mod) < 0 {
		return a.Cmp(b) == 0
	}
	return new(big.Int).Mod(a, mod).Cmp(new(big.Int).Mod(b, mod)) == 0
}

// Random returns a uniformly random field element.
func Random(r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	return rand.Int(r, mod)
}

// RandomNonZero returns a uniformly random element of Zn \ {0}.
func RandomNonZero(r io.Reader) (*big.Int, error) {
	for {
		v, err := Random(r)
		if err != nil {
			return nil, err
		}
		if v.Sign() != 0 {
			return v, nil
		}
	}
}

// Bytes encodes a as a fixed 32-byte big-endian value.
func Bytes(a *big.Int) []byte {
	out := make([]byte, 32)
	new(big.Int).Mod(a, mod).FillBytes(out)
	return out
}

// FromBytes decodes a 32-byte big-endian value, rejecting out-of-range
// encodings (canonical form is required on-chain).
func FromBytes(data []byte) (*big.Int, error) {
	if len(data) != 32 {
		return nil, fmt.Errorf("ff: scalar encoding must be 32 bytes, got %d", len(data))
	}
	v := new(big.Int).SetBytes(data)
	if v.Cmp(mod) >= 0 {
		return nil, fmt.Errorf("ff: non-canonical scalar encoding")
	}
	return v, nil
}

// Vector is a slice of field elements.
type Vector []*big.Int

// SolveLinearSystem solves A*x = b over Zn by Gaussian elimination, where A
// is square (len(b) rows). It returns the unique solution, or an error if A
// is singular. The inputs are not modified.
//
// The leakage attack of the paper's Section V-C reduces recovering data
// blocks from observed audit trails to exactly this computation.
func SolveLinearSystem(a [][]bn256.Scalar, b []bn256.Scalar) ([]bn256.Scalar, error) {
	k := len(b)
	if len(a) != k {
		return nil, fmt.Errorf("ff: system has %d rows but %d right-hand values", len(a), k)
	}
	// The augmented matrix, k rows of k+1 in one slab.
	slab := make([]bn256.Scalar, k*(k+1))
	m := make([][]bn256.Scalar, k)
	for i := range m {
		if len(a[i]) != k {
			return nil, fmt.Errorf("ff: row %d has %d columns, want %d", i, len(a[i]), k)
		}
		m[i] = slab[i*(k+1) : (i+1)*(k+1)]
		copy(m[i], a[i])
		m[i][k] = b[i]
	}

	var inv, t bn256.Scalar
	for col := 0; col < k; col++ {
		// Find a pivot.
		pivot := -1
		for row := col; row < k; row++ {
			if !m[row][col].IsZero() {
				pivot = row
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("ff: singular system (no pivot in column %d)", col)
		}
		m[col], m[pivot] = m[pivot], m[col]

		// Normalize the pivot row.
		inv.Inv(&m[col][col])
		for j := col; j <= k; j++ {
			m[col][j].Mul(&m[col][j], &inv)
		}

		// Eliminate the column from all other rows.
		for row := 0; row < k; row++ {
			if row == col || m[row][col].IsZero() {
				continue
			}
			factor := m[row][col]
			for j := col; j <= k; j++ {
				m[row][j].Sub(&m[row][j], t.Mul(&factor, &m[col][j]))
			}
		}
	}

	x := make([]bn256.Scalar, k)
	for i := range x {
		x[i] = m[i][k]
	}
	return x, nil
}
