package erasure

import (
	"errors"
	"fmt"
)

// Coder is a systematic Reed-Solomon coder with k data shares and m parity
// shares. Any k of the k+m shares reconstruct the original data.
type Coder struct {
	k, m   int
	matrix [][]byte // (k+m) x k encoding matrix; top k rows are identity
}

// errTooFewShares is returned when fewer than k shares survive.
var errTooFewShares = errors.New("erasure: not enough shares to reconstruct")

// NewCoder builds a coder for k data and m parity shares. k+m must be at
// most 255 (the GF(256) Vandermonde construction's limit). The encoding
// matrix is a Vandermonde matrix row-reduced so the top k rows are the
// identity, which both makes the code systematic and guarantees every k-row
// subset is invertible.
func NewCoder(k, m int) (*Coder, error) {
	if k < 1 || m < 0 || k+m > 255 {
		return nil, fmt.Errorf("erasure: invalid parameters k=%d m=%d", k, m)
	}
	n := k + m
	// Vandermonde rows: v[i][j] = i^j.
	v := make([][]byte, n)
	for i := range v {
		v[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			v[i][j] = gfPow(byte(i+1), j)
		}
	}
	// Multiply by the inverse of the top kxk block to make it systematic.
	top := make([][]byte, k)
	for i := range top {
		top[i] = make([]byte, k)
		copy(top[i], v[i])
	}
	if !matInvert(top) {
		return nil, errors.New("erasure: vandermonde top block singular")
	}
	matrix := make([][]byte, n)
	for i := 0; i < n; i++ {
		matrix[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			var acc byte
			for l := 0; l < k; l++ {
				acc ^= gfMul(v[i][l], top[l][j])
			}
			matrix[i][j] = acc
		}
	}
	return &Coder{k: k, m: m, matrix: matrix}, nil
}

// Split encodes data into k+m shares. The data is padded to a multiple of k
// and striped column-wise; each share carries shareSize bytes where
// shareSize = ceil(len(data)/k). The original length must be tracked by the
// caller (Join takes it as an argument).
func (c *Coder) Split(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, errors.New("erasure: empty input")
	}
	shareSize := (len(data) + c.k - 1) / c.k
	padded := make([]byte, shareSize*c.k)
	copy(padded, data)

	shares := make([][]byte, c.k+c.m)
	// Systematic: first k shares are the data stripes themselves.
	for i := 0; i < c.k; i++ {
		shares[i] = padded[i*shareSize : (i+1)*shareSize]
	}
	for i := c.k; i < c.k+c.m; i++ {
		out := make([]byte, shareSize)
		row := c.matrix[i]
		for j := 0; j < c.k; j++ {
			coef := row[j]
			if coef == 0 {
				continue
			}
			in := shares[j]
			for b := 0; b < shareSize; b++ {
				out[b] ^= gfMul(coef, in[b])
			}
		}
		shares[i] = out
	}
	return shares, nil
}

// Join reconstructs the original data of the given length from any k
// surviving shares. shares must have k+m entries with nil marking losses;
// all present shares must be the same length.
func (c *Coder) Join(shares [][]byte, length int) ([]byte, error) {
	if len(shares) != c.k+c.m {
		return nil, fmt.Errorf("erasure: got %d share slots, want %d", len(shares), c.k+c.m)
	}
	present := make([]int, 0, c.k)
	shareSize := -1
	for i, s := range shares {
		if s == nil {
			continue
		}
		if shareSize < 0 {
			shareSize = len(s)
		} else if len(s) != shareSize {
			return nil, fmt.Errorf("erasure: share %d has length %d, want %d", i, len(s), shareSize)
		}
		present = append(present, i)
	}
	if len(present) < c.k {
		return nil, fmt.Errorf("%w: have %d, need %d", errTooFewShares, len(present), c.k)
	}
	if length < 0 || length > shareSize*c.k {
		return nil, fmt.Errorf("erasure: implausible original length %d", length)
	}
	present = present[:c.k]

	// Decode matrix: rows of the encoding matrix for the surviving shares.
	dec := make([][]byte, c.k)
	for i, idx := range present {
		dec[i] = make([]byte, c.k)
		copy(dec[i], c.matrix[idx])
	}
	if !matInvert(dec) {
		return nil, errors.New("erasure: decode matrix singular")
	}

	out := make([]byte, shareSize*c.k)
	for j := 0; j < c.k; j++ { // reconstruct data stripe j
		stripe := out[j*shareSize : (j+1)*shareSize]
		for i, idx := range present {
			coef := dec[j][i]
			if coef == 0 {
				continue
			}
			in := shares[idx]
			for b := 0; b < shareSize; b++ {
				stripe[b] ^= gfMul(coef, in[b])
			}
		}
	}
	return out[:length], nil
}
