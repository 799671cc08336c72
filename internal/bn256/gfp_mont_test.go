package bn256

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"testing"
)

// gfpTestInputs returns the differential-test corpus: the field edge cases
// plus random elements.
func gfpTestInputs(t *testing.T) []*big.Int {
	t.Helper()
	in := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(P, big.NewInt(1)), // p-1
		new(big.Int).Sub(P, big.NewInt(2)), // p-2
		new(big.Int).Rsh(P, 1),             // (p-1)/2
	}
	for i := 0; i < 20; i++ {
		v, err := rand.Int(rand.Reader, P)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, v)
	}
	return in
}

// TestGFpDifferentialVsBig pins every gfP operation to the math/big
// reference semantics on random and edge inputs. This is the harness that
// licenses the Montgomery representation: any transcription error in the
// limb arithmetic shows up as a disagreement with big.Int mod-p arithmetic.
func TestGFpDifferentialVsBig(t *testing.T) {
	inputs := gfpTestInputs(t)
	for _, av := range inputs {
		var a gfP
		a.SetBig(av)

		// Encode/decode round trip.
		if got := a.Big(); got.Cmp(av) != 0 {
			t.Fatalf("SetBig/Big round trip: got %v want %v", got, av)
		}

		// Unary ops.
		var out gfP
		gfpNeg(&out, &a)
		want := new(big.Int).Neg(av)
		want.Mod(want, P)
		if out.Big().Cmp(want) != 0 {
			t.Fatalf("Neg(%v) mismatch", av)
		}
		gfpDouble(&out, &a)
		want.Lsh(av, 1)
		want.Mod(want, P)
		if out.Big().Cmp(want) != 0 {
			t.Fatalf("Double(%v) mismatch", av)
		}
		gfpSquare(&out, &a)
		want.Mul(av, av)
		want.Mod(want, P)
		if out.Big().Cmp(want) != 0 {
			t.Fatalf("Square(%v) mismatch", av)
		}
		if av.Sign() != 0 {
			out.Invert(&a)
			want.ModInverse(av, P)
			if out.Big().Cmp(want) != 0 {
				t.Fatalf("Invert(%v) mismatch", av)
			}
		}

		// Parity must reflect the canonical value, not the Montgomery limbs.
		if a.IsOdd() != (av.Bit(0) == 1) {
			t.Fatalf("IsOdd(%v) mismatch", av)
		}

		// Marshal round trip matches big-endian FillBytes.
		var enc [32]byte
		a.Marshal(enc[:])
		var ref [32]byte
		av.FillBytes(ref[:])
		if enc != ref {
			t.Fatalf("Marshal(%v) != FillBytes", av)
		}
		var back gfP
		if err := back.Unmarshal(enc[:]); err != nil {
			t.Fatalf("Unmarshal of canonical encoding failed: %v", err)
		}
		if !back.Equal(&a) {
			t.Fatalf("Marshal/Unmarshal round trip failed for %v", av)
		}

		for _, bv := range inputs {
			var b, c gfP
			b.SetBig(bv)

			gfpAdd(&c, &a, &b)
			want.Add(av, bv)
			want.Mod(want, P)
			if c.Big().Cmp(want) != 0 {
				t.Fatalf("Add(%v, %v) mismatch", av, bv)
			}

			gfpSub(&c, &a, &b)
			want.Sub(av, bv)
			want.Mod(want, P)
			if c.Big().Cmp(want) != 0 {
				t.Fatalf("Sub(%v, %v) mismatch", av, bv)
			}

			gfpMul(&c, &a, &b)
			want.Mul(av, bv)
			want.Mod(want, P)
			if c.Big().Cmp(want) != 0 {
				t.Fatalf("Mul(%v, %v) mismatch", av, bv)
			}
		}
	}
}

// TestGFpExpSqrtDifferential checks exponentiation and square roots against
// the big.Int reference.
func TestGFpExpSqrtDifferential(t *testing.T) {
	for i := 0; i < 10; i++ {
		av, _ := rand.Int(rand.Reader, P)
		kv, _ := rand.Int(rand.Reader, P)
		var a, out gfP
		a.SetBig(av)
		out.Exp(&a, kv)
		want := new(big.Int).Exp(av, kv, P)
		if out.Big().Cmp(want) != 0 {
			t.Fatalf("Exp mismatch on iteration %d", i)
		}

		// a^2 always has a root; the root must square back.
		var sq, r gfP
		gfpSquare(&sq, &a)
		if r.Sqrt(&sq) == nil {
			t.Fatal("Sqrt failed on a known square")
		}
		var chk gfP
		gfpSquare(&chk, &r)
		if !chk.Equal(&sq) {
			t.Fatal("Sqrt returned a non-root")
		}
	}
}

// TestGFpLegendreDifferential checks the limb Jacobi walk against
// big.Jacobi, on the edge values, on small values (long runs of zero limbs)
// and on random ones.
func TestGFpLegendreDifferential(t *testing.T) {
	inputs := gfpTestInputs(t)
	for i := int64(3); i < 200; i++ {
		inputs = append(inputs, big.NewInt(i), new(big.Int).Lsh(big.NewInt(i), 190))
	}
	for i := 0; i < 2000; i++ {
		v, _ := rand.Int(rand.Reader, P)
		inputs = append(inputs, v)
	}
	for _, v := range inputs {
		var a gfP
		a.SetBig(v)
		if got, want := a.Legendre(), big.Jacobi(v, P); got != want {
			t.Fatalf("Legendre(%v) = %d, want %d", v, got, want)
		}
		// The symbol is also that of the raw limbs, which is the form
		// whose zero-limb patterns the small inputs exercise.
		raw := gfP(limbsFromBig(v))
		if got, want := raw.Legendre(), big.Jacobi(v, P); got != want {
			t.Fatalf("Legendre(raw %v) = %d, want %d", v, got, want)
		}
	}
}

// TestGFpInvertDifferential checks the limb inversion against
// big.ModInverse and against a*(1/a) = 1. Values with small raw limbs finish
// the gcd walk with the fewest halvings and take the fix-up's doubling path.
func TestGFpInvertDifferential(t *testing.T) {
	inputs := []gfP{{1}, {2}, {3}, {0, 1}, {0, 0, 0, 1}, rOne, r2}
	pm1 := gfP(pLimbs)
	pm1[0]--
	inputs = append(inputs, pm1)
	for _, v := range gfpTestInputs(t)[1:] {
		var a gfP
		a.SetBig(v)
		inputs = append(inputs, a)
	}
	for i := 0; i < 2000; i++ {
		v, _ := rand.Int(rand.Reader, P)
		if v.Sign() != 0 {
			inputs = append(inputs, gfP(limbsFromBig(v)))
		}
	}
	for _, a := range inputs {
		var inv, prod gfP
		inv.Invert(&a)
		if gfpMul(&prod, &inv, &a); prod != rOne {
			t.Fatalf("Invert(%v): a * 1/a != 1", a)
		}
		if want := new(big.Int).ModInverse(a.Big(), P); inv.Big().Cmp(want) != 0 {
			t.Fatalf("Invert(%v) = %v, want %v", a, &inv, want)
		}
		b := a
		if b.Invert(&b); b != inv {
			t.Fatalf("Invert(%v) in place differs", a)
		}
	}
}

// TestGFpUnmarshalRejectsNonCanonical verifies the range check at the wire
// boundary: encodings >= p must be rejected.
func TestGFpUnmarshalRejectsNonCanonical(t *testing.T) {
	var buf [32]byte
	P.FillBytes(buf[:])
	var e gfP
	if err := e.Unmarshal(buf[:]); err == nil {
		t.Fatal("accepted p as a field element encoding")
	}
	pPlus1 := new(big.Int).Add(P, big.NewInt(1))
	pPlus1.FillBytes(buf[:])
	if err := e.Unmarshal(buf[:]); err == nil {
		t.Fatal("accepted p+1 as a field element encoding")
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if err := e.Unmarshal(buf[:]); err == nil {
		t.Fatal("accepted 2^256-1 as a field element encoding")
	}
}

// Golden marshal vectors generated by the pre-Montgomery (*big.Int)
// implementation at the paper's fixed scalar
// k = 31415926535897932384626433832795028841971693993751058209749445923078164062862.
// They pin the wire formats across the representation change: any drift in
// Marshal/MarshalCompressed for G1, G2 or GT (or in HashToG1's
// try-and-increment normalization) breaks these.
var goldenVectors = map[string]string{
	"g1_u":   "00000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000002",
	"g1k_u":  "15c30f4b6cf6dbbcbdcc10fe22f54c8170aea44e198139b776d512d8f027319a1b9e8bfaf1383978231ce98e42bafc8129f473fc993cf60ce327f7d223460663",
	"g1k_c":  "95c30f4b6cf6dbbcbdcc10fe22f54c8170aea44e198139b776d512d8f027319a",
	"g2_u":   "20391cf8df1e17c18da4a765a1aee94f9a3d2b07da6eebb72bc28f5c42b0bd9a0717c5e8819cc397e17ff13eb1fb9e85595d28adcfe99be713bd9e60646014ce27ef4f7c07b8829f711307683a9d7def634144a08e30c0596bdaede7ff70435a161b94ab47f657a4cb7cbd97d2bb6b8de9ec87f3c35fe2bfeb3b468c43c09d9e",
	"g2k_u":  "2a94af2908dca51473959ce755cce7c7ca66fd2edca91ba3dd81602a7fb441ac08e388b003cabdda74230df1c6c328ff1e932c5285e440305a73ead500d52e60132c026d47be7caac0fa66b6f2fad92e7f85282c96e14db3b564e7e42ea4b3f42cf2712bff4f48fd97eeabb0966656f4bc9787ad1963c2c359499cd9ed3c0c28",
	"g2k_c":  "2a94af2908dca51473959ce755cce7c7ca66fd2edca91ba3dd81602a7fb441ac08e388b003cabdda74230df1c6c328ff1e932c5285e440305a73ead500d52e60",
	"gtk_u":  "0ef0dc79f11727bbf51fc0c12be482435338eca8b80b6b9bb4010f9fc86be9b80b3bc375b22c7cc7fc92590c0c69197ade9ae4f7bdff7f19581ce3fe04bf48b02aa19e4c5492e7be2249bfc89250f2737a0c6be1f0ba56ae655b13aef05f448a16231b1c871dfaa50e4e78090530ab062379b650d41ce5acc2e8b16826b56bf407a3f8f168492f600a72de94305e2a4a0dd5edf050ef245a25639c65088d19c4241101298b31e9d89aaa3534fcfb9b6918a6740f17168959ec34c3f23443e1b2150b2c59b10558f846ef93a13ed59683e7c4498b3d6862c5bcad6fb656b458890513fa1cba28186723dea47cbfa529959240d684e61aadd4d9e630dccf9bb9861bd25fedaad1571bda7bc1524094b4b4cef5f08e567ba6aa8afd687549c6bf24224a3ec04fe0b0fc887dcfa1dc849bd2e7ec9f1c6b5995bf1558ec034e0e400918bf13d3823c17f4f3be9100de4023300b32239cc4f9bedfb74c4ff9f6b174441d32ca30205cff23764305145463c7e4c25988c52e4abf318d2a0a327f8b6cab",
	"gtk_c":  "16fa255c9420ae9cb88da20c2c77f1d176e2bf420d657f68a159dbbbc056eb1219e11f4fa4b09560be95ddadcd9192b593aced9941f2863788e466fb6492b06921c68b7f507adf081bfe7109945e7ea34bf81b7f53a32fb8570bbd1118a132e50434fb61ddc20046b248281b03cbf82d78d6827cf826608c179247051e3663b22287f4f8c74b8ba086f55013c104615567cd9b2bff2b6f18d4b6002d64446de80d0667dc200c5c66f973ac20220f123d2df8c26e393daeb5539ec17e3cea6b83",
	"hash_u": "28332a6354f20e94b6f76665039862588d57c88012ae1ef55dc095aae390e3950a7fdea55fd2a100b19171e77b5e6d5729a7b7fa176b7607907a1562e8fdd7f5",
}

func goldenBytes(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := hex.DecodeString(goldenVectors[name])
	if err != nil {
		t.Fatalf("bad golden vector %s: %v", name, err)
	}
	return raw
}

// TestMarshalGoldenVectors proves wire compatibility with the pre-refactor
// big.Int encodings, and that the golden encodings decode back to the same
// group elements.
func TestMarshalGoldenVectors(t *testing.T) {
	k := bigFromBase10("31415926535897932384626433832795028841971693993751058209749445923078164062862")

	g1 := new(G1).ScalarBaseMult(big.NewInt(1))
	if !bytes.Equal(g1.Marshal(), goldenBytes(t, "g1_u")) {
		t.Fatal("G1 generator encoding drifted")
	}
	p1 := new(G1).ScalarBaseMult(k)
	if !bytes.Equal(p1.Marshal(), goldenBytes(t, "g1k_u")) {
		t.Fatal("G1 uncompressed encoding drifted")
	}
	if !bytes.Equal(p1.MarshalCompressed(), goldenBytes(t, "g1k_c")) {
		t.Fatal("G1 compressed encoding drifted")
	}
	var p1back G1
	if err := p1back.Unmarshal(goldenBytes(t, "g1k_u")); err != nil || !p1back.Equal(p1) {
		t.Fatal("G1 golden encoding does not decode to k*g1")
	}

	g2 := new(G2).ScalarBaseMult(big.NewInt(1))
	if !bytes.Equal(g2.Marshal(), goldenBytes(t, "g2_u")) {
		t.Fatal("G2 generator encoding drifted")
	}
	p2 := new(G2).ScalarBaseMult(k)
	if !bytes.Equal(p2.Marshal(), goldenBytes(t, "g2k_u")) {
		t.Fatal("G2 uncompressed encoding drifted")
	}
	if !bytes.Equal(p2.MarshalCompressed(), goldenBytes(t, "g2k_c")) {
		t.Fatal("G2 compressed encoding drifted")
	}
	var p2back G2
	if err := p2back.Unmarshal(goldenBytes(t, "g2k_u")); err != nil || !p2back.Equal(p2) {
		t.Fatal("G2 golden encoding does not decode to k*g2")
	}

	gt := new(GT).ScalarMult(Pair(g1, g2), k)
	if !bytes.Equal(gt.Marshal(), goldenBytes(t, "gtk_u")) {
		t.Fatal("GT uncompressed encoding drifted")
	}
	gtc, err := gt.MarshalCompressed()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gtc, goldenBytes(t, "gtk_c")) {
		t.Fatal("GT torus encoding drifted")
	}
	var gtback GT
	if err := gtback.Unmarshal(goldenBytes(t, "gtk_u")); err != nil || !gtback.Equal(gt) {
		t.Fatal("GT golden encoding does not decode to e(g1,g2)^k")
	}

	h := HashToG1([]byte("golden vector"))
	if !bytes.Equal(h.Marshal(), goldenBytes(t, "hash_u")) {
		t.Fatal("HashToG1 encoding drifted")
	}
}

// FuzzGfpMulSquare pins the unrolled Montgomery kernels to math/big on
// arbitrary limbs (reduced mod p first: the kernels' contract is inputs in
// [0, p)). The seeds are the values where a carry or the final subtraction
// is most likely to go wrong.
func FuzzGfpMulSquare(f *testing.F) {
	max := ^uint64(0)
	seeds := [][4]uint64{{}, {1}, {max, max, max, max}, rOne, r2}
	pm1 := pLimbs
	pm1[0]--
	seeds = append(seeds, pm1)
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
		}
	}
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(bigOne, 256), P)
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		raw := func(l gfP) (gfP, *big.Int) {
			v := l.rawBig()
			v.Mod(v, P)
			return gfP(limbsFromBig(v)), v
		}
		a, av := raw(gfP{a0, a1, a2, a3})
		b, bv := raw(gfP{b0, b1, b2, b3})
		check := func(op string, got gfP, x, y *big.Int) {
			want := new(big.Int).Mul(x, y)
			want.Mul(want, rInv).Mod(want, P)
			if gfP(limbsFromBig(want)) != got {
				t.Fatalf("%s(%v, %v) = %v, want %v", op, x, y, got, want)
			}
		}
		var c gfP
		gfpMul(&c, &a, &b)
		check("gfpMul", c, av, bv)
		// The second operand may be any 256-bit value (hashToFp relies on
		// it to reduce digests).
		wide := gfP{b0, b1, b2, b3}
		gfpMul(&c, &a, &wide)
		check("gfpMul by unreduced limbs", c, av, wide.rawBig())
		gfpSquare(&c, &a)
		check("gfpSquare", c, av, av)
		gfpSquare(&c, &b)
		check("gfpSquare", c, bv, bv)
		// In-place forms alias the output with an input.
		c = a
		gfpMul(&c, &c, &b)
		check("gfpMul in place", c, av, bv)
		c = a
		gfpSquare(&c, &c)
		check("gfpSquare in place", c, av, av)
	})
}

// FuzzGfpAddSub pins the additive kernels gfpAdd, gfpSub, gfpDouble and
// gfpNeg to math/big on arbitrary limbs reduced mod p, out of place and with
// the output aliasing either input. An additive result does not depend on
// the Montgomery factor, so limbs are compared as plain integers. The seeds
// put a+b at p-1, p and p+1 and a-b at -1, 0 and +1, where the reduction's
// outcome flips, plus 0 and p-1.
func FuzzGfpAddSub(f *testing.F) {
	half := new(big.Int).Rsh(P, 1) // (p-1)/2
	next := new(big.Int).Add(half, bigOne)
	zero, pm1 := new(big.Int), new(big.Int).Sub(P, bigOne)
	for _, s := range [][2]*big.Int{
		{half, half}, // a+b = p-1, a-b = 0
		{half, next}, // a+b = p, a-b = -1
		{next, next}, // a+b = p+1
		{next, half}, // a-b = +1
		{zero, zero},
		{zero, pm1},
		{pm1, zero},
		{pm1, pm1},
	} {
		a, b := limbsFromBig(s[0]), limbsFromBig(s[1])
		f.Add(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
	}
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		reduce := func(l gfP) (gfP, *big.Int) {
			v := l.rawBig()
			v.Mod(v, P)
			return gfP(limbsFromBig(v)), v
		}
		a, av := reduce(gfP{a0, a1, a2, a3})
		b, bv := reduce(gfP{b0, b1, b2, b3})
		for _, op := range []struct {
			name string
			fn   func(c, a, b *gfP)
			want *big.Int
		}{
			{"gfpAdd", gfpAdd, new(big.Int).Add(av, bv)},
			{"gfpSub", gfpSub, new(big.Int).Sub(av, bv)},
			{"gfpDouble", func(c, a, _ *gfP) { gfpDouble(c, a) }, new(big.Int).Lsh(av, 1)},
			{"gfpNeg", func(c, a, _ *gfP) { gfpNeg(c, a) }, new(big.Int).Neg(av)},
		} {
			op.want.Mod(op.want, P)
			want := gfP(limbsFromBig(op.want))
			var c gfP
			op.fn(&c, &a, &b)
			ca, cb := a, b
			op.fn(&ca, &ca, &b)
			op.fn(&cb, &a, &cb)
			for form, got := range map[string]gfP{"": c, " into a": ca, " into b": cb} {
				if got != want {
					t.Fatalf("%s%s(%v, %v) = %v, want %v", op.name, form, av, bv, got.rawBig(), op.want)
				}
			}
		}
	})
}

// rawBig returns the limbs as an integer, without Montgomery decoding.
func (e *gfP) rawBig() *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(e[i]))
	}
	return v
}

var gfpSink gfP

func BenchmarkGfpMul(b *testing.B) {
	x, y := r2, rOne
	gfpAdd(&y, &y, &r2)
	for i := 0; i < b.N; i++ {
		gfpMul(&x, &x, &y)
	}
	gfpSink = x
}

func BenchmarkGfpInvert(b *testing.B) {
	x := r2
	for i := 0; i < b.N; i++ {
		x.Invert(&x)
		gfpAdd(&x, &x, &rOne)
	}
	gfpSink = x
}

func BenchmarkGfpSquare(b *testing.B) {
	x := r2
	for i := 0; i < b.N; i++ {
		gfpSquare(&x, &x)
	}
	gfpSink = x
}
