package core

import (
	"fmt"

	"repro/internal/bn256"
	"repro/internal/poly"
)

// BlockSize is the number of file bytes packed into one Zn block. n has 254
// bits, so 31 bytes always fit with headroom and decoding is unambiguous.
const BlockSize = 31

// EncodedFile is a file prepared for outsourcing: the byte stream split into
// d chunks of s blocks each (Definition 1's chunk polynomials), plus the
// original length for exact round-tripping.
type EncodedFile struct {
	S      int
	Length int         // original byte length
	Chunks []poly.Poly // Chunks[i] is Mi(x), degree <= s-1, exactly s coefficients
}

// NewEncodedFile returns the file of the given length whose d*s blocks are
// blocks, chunk i being blocks[i*s : (i+1)*s]. The chunks share blocks, which
// the file takes over, so a file is one slab of scalars however many chunks it
// has.
func NewEncodedFile(s, length int, blocks []bn256.Scalar) *EncodedFile {
	ef := &EncodedFile{S: s, Length: length, Chunks: make([]poly.Poly, len(blocks)/s)}
	for i := range ef.Chunks {
		ef.Chunks[i].Coeffs = blocks[i*s : (i+1)*s : (i+1)*s]
	}
	return ef
}

// EncodeFile splits data into chunks of s blocks. The final block is
// zero-padded; Length disambiguates the padding on decode.
func EncodeFile(data []byte, s int) (*EncodedFile, error) {
	if s < 1 {
		return nil, fmt.Errorf("%w: chunk size s = %d", ErrBadParameters, s)
	}
	nBlocks := (len(data) + BlockSize - 1) / BlockSize
	if nBlocks == 0 {
		nBlocks = 1 // an empty file still gets one (zero) block
	}
	d := (nBlocks + s - 1) / s

	// Each block is exactly BlockSize bytes, the last one zero-padded on the
	// right, so that Decode restores byte positions; blocks past the data
	// stay zero. A block is below 2^248 < n, so SetBytes cannot fail.
	blocks := make([]bn256.Scalar, d*s)
	for j := 0; j*BlockSize < len(data); j++ {
		var block [BlockSize]byte
		copy(block[:], data[j*BlockSize:])
		_ = blocks[j].SetBytes(block[:])
	}
	return NewEncodedFile(s, len(data), blocks), nil
}

// Decode reassembles the original byte stream: the low BlockSize bytes of
// each block, in order.
func (ef *EncodedFile) Decode() []byte {
	out := make([]byte, 0, ef.NumBlocks()*BlockSize)
	for _, chunk := range ef.Chunks {
		for _, c := range chunk.Coeffs {
			b := c.Bytes()
			out = append(out, b[32-BlockSize:]...)
		}
	}
	if len(out) < ef.Length {
		// Trailing zero blocks were elided structurally; pad explicitly.
		out = append(out, make([]byte, ef.Length-len(out))...)
	}
	return out[:ef.Length]
}

// NumChunks returns d, the chunk count.
func (ef *EncodedFile) NumChunks() int { return len(ef.Chunks) }

// NumBlocks returns n, the total block count (including padding).
func (ef *EncodedFile) NumBlocks() int { return len(ef.Chunks) * ef.S }

// StorageOverheadRatio returns the provider's extra storage for
// authenticators relative to the data size: one 32-byte G1 element per
// chunk of s 31-byte blocks, i.e. about 1/s (the Section VII-C claim).
func (ef *EncodedFile) StorageOverheadRatio() float64 {
	dataBytes := float64(ef.NumBlocks() * BlockSize)
	authBytes := float64(ef.NumChunks() * 32)
	return authBytes / dataBytes
}

// Clone returns an independent deep copy of the encoded file. Each storage
// provider retains its own replica of the audit state, so corruption at one
// provider (Corrupt) must never bleed into the owner's copy or another
// provider's.
func (ef *EncodedFile) Clone() *EncodedFile {
	blocks := make([]bn256.Scalar, 0, ef.NumBlocks())
	for _, chunk := range ef.Chunks {
		blocks = append(blocks, chunk.Coeffs...)
	}
	return NewEncodedFile(ef.S, ef.Length, blocks)
}

// Corrupt adds 1 mod n to the given block (chunk index i, block index j
// within the chunk) and returns its previous value, so tests and experiments
// can restore it. It models silent data corruption or loss at the storage
// provider.
func (ef *EncodedFile) Corrupt(i, j int) bn256.Scalar {
	c := &ef.Chunks[i].Coeffs[j]
	old := *c
	var one bn256.Scalar
	c.Add(c, one.SetUint64(1))
	return old
}
