package bn256

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"math/big"
	"testing"
)

// Wire-decoder fuzzing: group-element parsers face attacker-controlled
// chain bytes, so they must never panic and must accept only canonical
// encodings (accept -> re-marshal byte-identical).

func FuzzG1UnmarshalCompressed(f *testing.F) {
	_, p, _ := RandomG1(rand.Reader)
	f.Add(p.MarshalCompressed())
	f.Add(new(G1).SetInfinity().MarshalCompressed())
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G1
		if err := q.UnmarshalCompressed(data); err != nil {
			return
		}
		if !bytes.Equal(q.MarshalCompressed(), data) {
			t.Fatal("accepted non-canonical compressed G1")
		}
	})
}

func FuzzG1Unmarshal(f *testing.F) {
	_, p, _ := RandomG1(rand.Reader)
	f.Add(p.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G1
		if err := q.Unmarshal(data); err != nil {
			return
		}
		if !bytes.Equal(q.Marshal(), data) {
			t.Fatal("accepted non-canonical G1")
		}
	})
}

func FuzzG2UnmarshalCompressed(f *testing.F) {
	_, p, _ := RandomG2(rand.Reader)
	f.Add(p.MarshalCompressed())
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G2
		if err := q.UnmarshalCompressed(data); err != nil {
			return
		}
		if !bytes.Equal(q.MarshalCompressed(), data) {
			t.Fatal("accepted non-canonical compressed G2")
		}
	})
}

func FuzzGTUnmarshalCompressed(f *testing.F) {
	g := Pair(new(G1).ScalarBaseMult(bigOne), new(G2).ScalarBaseMult(bigOne))
	enc, err := g.MarshalCompressed()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	// Norm-1 elements the subgroup check must refuse: f^(p^6-1) fails the
	// cyclotomic stage, its easy-part completion the exponent-u relation.
	unitary := newGFp12().Conjugate(g.p)
	unitary.x.z.x.SetInt64(7) // any f outside the subgroups
	cofactor := easyPart(unitary)
	unitary.Mul(newGFp12().Conjugate(unitary), newGFp12().Invert(unitary))
	for _, a := range []*gfP12{unitary, cofactor} {
		enc, err := (&GT{p: a}).MarshalCompressed()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var q GT
		err := q.UnmarshalCompressed(data)
		if len(data) != GTCompressedSize {
			if err == nil {
				t.Fatal("accepted a compressed GT of the wrong length")
			}
			return
		}
		// Differential against the check this one replaced, on whatever
		// element the decoder got as far as building.
		if old := oldHasOrderN(q.p); q.p.hasOrderN() != old || (err == nil && !old) {
			t.Fatalf("subgroup check disagrees with a^n == 1 (err=%v, a^n==1: %v)", err, old)
		}
		if err != nil {
			return
		}
		re, err := q.MarshalCompressed()
		if err != nil {
			t.Fatalf("accepted GT fails to re-marshal: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted non-canonical compressed GT")
		}
	})
}

// FuzzMultiScalarMult drives the bucket reduction with inputs built from the
// fuzzer's bytes and holds it to the sum of scalar multiplications. Each
// 9-byte record is one pair: the first byte picks the point from a small
// pool (a point, its negation, a Jacobian copy, another point, infinity, nil)
// so that repeats and cancellations are the common case, the rest is the
// scalar, sign-extended so that small, huge and negative ones all occur.
func FuzzMultiScalarMult(f *testing.F) {
	p, q := HashToG1([]byte("fuzz msm p")), HashToG1([]byte("fuzz msm q"))
	jac := new(G1).Add(new(G1).Add(p, q), new(G1).Neg(q)) // p again, z != 1
	pool := []*G1{p, new(G1).Neg(p), jac, q, new(G1).Neg(q), new(G1).SetInfinity(), {}}
	rec := func(point byte, scalar uint64) []byte {
		return append([]byte{point}, new(big.Int).SetUint64(scalar).FillBytes(make([]byte, 8))...)
	}
	var doubling, cancelling, mixed []byte
	for i := 0; i < 6; i++ {
		doubling = append(doubling, rec(0, 0x0123456789abcdef)...)
		cancelling = append(cancelling, rec(byte(i%2), 77)...)
		mixed = append(mixed, rec(byte(i), uint64(i)<<61|uint64(i))...)
	}
	f.Add(doubling)
	f.Add(cancelling)
	f.Add(append(cancelling, doubling...))
	f.Add(mixed)
	f.Add([]byte{})
	// Short and full-width scalars in one input: k^6 for k = 2642245 and
	// 2642246 lands just below and just above 2^128, where glvDecompose
	// switches rule, beside 64-bit ones and n - k.
	var shortFull []byte
	for i, r := range [][2]uint64{{2 << 6, 2642245}, {3 << 6, 5}, {2 << 6, 2642246}, {0, 1 << 63}, {1 << 6, 9}, {2 << 6, 2642245}} {
		shortFull = append(shortFull, rec(byte(r[0])|byte(i%5), r[1])...)
	}
	f.Add(shortFull)
	f.Add(append(shortFull, cancelling...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 9*64 {
			data = data[:9*64]
		}
		var points []*G1
		var scalars []*big.Int
		for ; len(data) >= 9; data = data[9:] {
			k := new(big.Int).SetBytes(data[1:9])
			switch data[0] >> 6 {
			case 1:
				k.Neg(k)
			case 2:
				k.Mul(k, k).Mul(k, k).Mul(k, k) // up to 512 bits
			case 3:
				k.Sub(Order, k)
			}
			points = append(points, pool[int(data[0]&63)%len(pool)])
			scalars = append(scalars, k)
		}
		want := new(G1).SetInfinity()
		for i := range points {
			want.Add(want, new(G1).ScalarMult(points[i], scalars[i]))
		}
		for _, workers := range []int{1, 3} {
			if got := new(G1).MultiScalarMultParallel(points, scalars, workers); !got.Equal(want) {
				t.Fatalf("workers=%d: MultiScalarMult disagrees with the sum of ScalarMults", workers)
			}
		}
	})
}

// FuzzGTMultiScalarMult holds GT.MultiScalarMult to the product of
// ScalarMults on inputs built from the fuzzer's bytes, 9-byte records as in
// FuzzMultiScalarMult: the first byte picks the element from a small pool (an
// element, its inverse, another, the identity, a zero value, a raw MillerLoop
// value outside the cyclotomic subgroup), the rest is the exponent.
func FuzzGTMultiScalarMult(f *testing.F) {
	p, q := HashToG1([]byte("fuzz gt p")), HashToG1([]byte("fuzz gt q"))
	a, b := Pair(p, GenG2()), Pair(q, GenG2())
	pool := []*GT{a, new(GT).Neg(a), b, new(GT).SetOne(), {}, MillerLoop(p, GenG2())}
	rec := func(elem byte, exp uint64) []byte {
		return append([]byte{elem}, new(big.Int).SetUint64(exp).FillBytes(make([]byte, 8))...)
	}
	var repeated, cancelling, mixed []byte
	for i := 0; i < 6; i++ {
		repeated = append(repeated, rec(0, 0x0123456789abcdef)...)
		cancelling = append(cancelling, rec(byte(i%2), 77)...)
		mixed = append(mixed, rec(byte(i)|byte(i%4)<<6, uint64(i)<<61|uint64(i))...)
	}
	f.Add(repeated)
	f.Add(cancelling)
	f.Add(mixed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 9*16 {
			data = data[:9*16]
		}
		var elems []*GT
		var exps []*big.Int
		for ; len(data) >= 9; data = data[9:] {
			k := new(big.Int).SetBytes(data[1:9])
			switch data[0] >> 6 {
			case 1:
				k.Neg(k)
			case 2:
				k.Mul(k, k).Mul(k, k).Mul(k, k) // up to 512 bits
			case 3:
				k.Sub(Order, k)
			}
			elems = append(elems, pool[int(data[0]&63)%len(pool)])
			exps = append(exps, k)
		}
		if got := new(GT).MultiScalarMult(elems, exps); !got.Equal(gtProduct(elems, exps)) {
			t.Fatal("GT.MultiScalarMult disagrees with the product of ScalarMults")
		}
	})
}

// FuzzGTScalarMult holds GT.ScalarMult -- the Frobenius split of the exponent
// -- to the plain ladder on the residue. The exponent is the first 32 of the
// fuzzer's bytes, so it runs past n up to 2^256; the base is a pairing value
// drawn from the seed.
func FuzzGTScalarMult(f *testing.F) {
	f.Add(make([]byte, 32), uint64(0))
	f.Add(Order.Bytes(), uint64(1))
	f.Add(gtLambda.Bytes(), uint64(2))
	f.Add(new(big.Int).Rsh(Order, 1).Bytes(), uint64(3))
	f.Add(bytes.Repeat([]byte{0xff}, 32), uint64(4))
	f.Fuzz(func(t *testing.T, exp []byte, seed uint64) {
		k := new(big.Int).SetBytes(exp[:min(len(exp), 32)])
		a := Pair(HashToG1(binary.BigEndian.AppendUint64(nil, seed)), GenG2())
		want := newGFp12().Exp(a.p, new(big.Int).Mod(k, Order))
		if got := new(GT).ScalarMult(a, k); !got.p.Equal(want) {
			t.Fatalf("k=%v, seed %d: ScalarMult disagrees with the ladder", k, seed)
		}
	})
}
