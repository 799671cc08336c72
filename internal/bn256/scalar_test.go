package bn256

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

// FuzzScalar pins Scalar to math/big: the byte round trip (SetBytes accepts
// exactly the encodings below n, of at most 32 bytes, and Bytes gives them
// back), then Add, Sub, Mul, Neg and Inv, out of place and in place, the
// big.Int conversions both ways, SetBytesWide, SetRandom against
// crypto/rand.Int on the same stream and a two-term ScalarLinearCombination, on
// the inputs' values reduced mod n. The seeds sit where a reduction flips: 0,
// 1, n-1, n, n+1, 2^128 (where ScalarLinearCombination switches product
// width) and 2^256-1.
func FuzzScalar(f *testing.F) {
	enc := func(v *big.Int) []byte { return v.FillBytes(make([]byte, 32)) }
	nm1 := new(big.Int).Sub(Order, bigOne)
	two128 := new(big.Int).Lsh(bigOne, 128)
	max := new(big.Int).Sub(new(big.Int).Lsh(bigOne, 256), bigOne)
	seeds := [][]byte{
		{}, {1}, enc(nm1), enc(Order), enc(new(big.Int).Add(Order, bigOne)),
		enc(new(big.Int).Sub(two128, bigOne)), enc(two128), enc(max),
		bytes.Repeat([]byte{0xff}, 31), append([]byte{0}, enc(nm1)...),
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, in := range [][]byte{a, b} {
			var s Scalar
			err := s.SetBytes(in)
			canonical := len(in) <= 32 && new(big.Int).SetBytes(in).Cmp(Order) < 0
			if (err == nil) != canonical {
				t.Fatalf("SetBytes(%x) error = %v, canonical = %v", in, err, canonical)
			}
			if err != nil {
				if !s.IsZero() {
					t.Fatalf("rejected SetBytes(%x) changed the scalar", in)
				}
				continue
			}
			out := s.Bytes()
			if want := enc(new(big.Int).SetBytes(in)); !bytes.Equal(out[:], want) {
				t.Fatalf("Bytes after SetBytes(%x) = %x", in, out)
			}
		}

		av := new(big.Int).SetBytes(a)
		bv := new(big.Int).SetBytes(b)
		var x, y Scalar
		x.SetBig(av)
		y.SetBig(bv)
		av.Mod(av, Order)
		bv.Mod(bv, Order)
		if x.Big().Cmp(av) != 0 || y.Big().Cmp(bv) != 0 {
			t.Fatalf("SetBig/Big round trip: %v, %v, want %v, %v", &x, &y, av, bv)
		}
		check := func(op string, got Scalar, want *big.Int) {
			t.Helper()
			want.Mod(want, Order)
			if got.Big().Cmp(want) != 0 {
				t.Fatalf("%s(%v, %v) = %v, want %v", op, av, bv, &got, want)
			}
		}
		for _, op := range []struct {
			name string
			fn   func(z, a, b *Scalar) *Scalar
			want *big.Int
		}{
			{"Add", (*Scalar).Add, new(big.Int).Add(av, bv)},
			{"Sub", (*Scalar).Sub, new(big.Int).Sub(av, bv)},
			{"Mul", (*Scalar).Mul, new(big.Int).Mul(av, bv)},
			{"Neg", func(z, a, _ *Scalar) *Scalar { return z.Neg(a) }, new(big.Int).Neg(av)},
		} {
			var z Scalar
			op.fn(&z, &x, &y)
			check(op.name, z, op.want)
			za, zb := x, y
			op.fn(&za, &za, &y)
			check(op.name+" into a", za, op.want)
			op.fn(&zb, &x, &zb)
			check(op.name+" into b", zb, op.want)
		}
		if av.Sign() != 0 {
			var z Scalar
			z.Inv(&x)
			check("Inv", z, new(big.Int).ModInverse(av, Order))
			z = x
			z.Inv(&z)
			check("Inv in place", z, new(big.Int).ModInverse(av, Order))
		}

		// SetBytesWide reads a || b as one 512-bit integer, and SetRandom
		// draws from it what rand.Int draws, zeros skipped.
		ab := append(append([]byte(nil), a...), b...)
		if len(ab) <= 64 {
			var wide [64]byte
			copy(wide[64-len(ab):], ab)
			var w Scalar
			check("SetBytesWide", *w.SetBytesWide(&wide), new(big.Int).SetBytes(ab))
		}
		var drawn Scalar
		errDrawn := drawn.SetRandom(bytes.NewReader(ab))
		stream := bytes.NewReader(ab)
		want, err := rand.Int(stream, Order)
		for err == nil && want.Sign() == 0 {
			want, err = rand.Int(stream, Order)
		}
		if (errDrawn == nil) != (err == nil) || (err == nil && drawn.Big().Cmp(want) != 0) {
			t.Fatalf("SetRandom = (%v, %v), rand.Int = (%v, %v)", &drawn, errDrawn, want, err)
		}

		// sum = [a*a + b*b, a*b + b*a]
		sum := make([]Scalar, 2)
		ScalarLinearCombination(sum, []Scalar{x, y}, [][]Scalar{{x, y}, {y, x}})
		check("ScalarLinearCombination[0]", sum[0], new(big.Int).Add(new(big.Int).Mul(av, av), new(big.Int).Mul(bv, bv)))
		check("ScalarLinearCombination[1]", sum[1], new(big.Int).Lsh(new(big.Int).Mul(av, bv), 1))
	})
}

// TestScalarLinearCombinationWorstCase fills the nine-word accumulator as far
// as a test can: thousands of (n-1)*(n-1) terms, the largest a term can be,
// against the sum in math/big.
func TestScalarLinearCombinationWorstCase(t *testing.T) {
	nm1 := new(big.Int).Sub(Order, bigOne)
	var top Scalar
	top.SetBig(nm1)
	const k, width = 5000, 3
	c := make([]Scalar, k)
	v := make([][]Scalar, k)
	for i := range c {
		c[i] = top
		v[i] = []Scalar{top, top, top}
	}
	dst := make([]Scalar, width)
	ScalarLinearCombination(dst, c, v)
	want := new(big.Int).Mul(nm1, nm1)
	want.Mul(want, big.NewInt(k)).Mod(want, Order)
	for j := range dst {
		if dst[j].Big().Cmp(want) != 0 {
			t.Fatalf("dst[%d] = %v, want %v", j, &dst[j], want)
		}
	}
}

func TestScalarLinearCombinationPanicsOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"counts": func() { ScalarLinearCombination(make([]Scalar, 1), make([]Scalar, 2), make([][]Scalar, 1)) },
		"width":  func() { ScalarLinearCombination(make([]Scalar, 2), make([]Scalar, 1), [][]Scalar{make([]Scalar, 1)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
