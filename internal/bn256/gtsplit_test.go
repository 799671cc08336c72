package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// gtSplitScalars are the exponents in [0, n) the split can get wrong -- the
// ends of the range, the powers of lambda (where a part is exactly 1), the
// third of n, a single high bit, u -- followed by count random ones.
func gtSplitScalars(t testing.TB, count int) []*big.Int {
	t.Helper()
	pow := func(e int64) *big.Int { return new(big.Int).Exp(gtLambda, big.NewInt(e), Order) }
	ks := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(Order, bigOne),
		pow(1), pow(2), pow(3),
		new(big.Int).Sub(Order, gtLambda),
		new(big.Int).Div(Order, big.NewInt(3)),
		new(big.Int).Lsh(bigOne, 253),
		u,
	}
	for i := 0; i < count; i++ {
		k, err := rand.Int(rand.Reader, Order)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	return ks
}

// bigDet is the determinant by cofactor expansion along the first row.
func bigDet(m [][]*big.Int) *big.Int {
	if len(m) == 1 {
		return m[0][0]
	}
	det := new(big.Int)
	for j := range m {
		term := new(big.Int).Mul(m[0][j], bigDet(bigMinor(m, 0, j)))
		if j&1 == 1 {
			term.Neg(term)
		}
		det.Add(det, term)
	}
	return det
}

// bigMinor is m without row r and column c.
func bigMinor(m [][]*big.Int, r, c int) [][]*big.Int {
	var out [][]*big.Int
	for i, row := range m {
		if i != r {
			out = append(out, append(append([]*big.Int{}, row[:c]...), row[c+1:]...))
		}
	}
	return out
}

// gtSplitReference is the decomposition on big.Int, sharing nothing with the
// limb version: its own copy of the basis written out from u, the coordinates
// of (k, 0, 0, 0) by Cramer's rule, and four exact roundings.
type gtSplitReference struct {
	basis [][]*big.Int
	det   *big.Int
	cof   [4]*big.Int // cofactors of the first column: (k, 0, 0, 0) = sum_i (k*cof[i]/det) * basis[i]
}

func newGTSplitReference(t *testing.T) *gtSplitReference {
	t.Helper()
	lin := func(c0, c1 int64) *big.Int {
		v := new(big.Int).Mul(u, big.NewInt(c1))
		return v.Add(v, big.NewInt(c0))
	}
	r := &gtSplitReference{basis: [][]*big.Int{
		{lin(1, 2), lin(0, 0), lin(0, 2), lin(1, 0)},
		{lin(0, 2), lin(1, 1), lin(0, -1), lin(0, 1)},
		{lin(1, 1), lin(0, 1), lin(0, 1), lin(0, -2)},
		{lin(1, 2), lin(0, -1), lin(-1, -1), lin(0, -1)},
	}}
	r.det = bigDet(r.basis)
	if new(big.Int).Abs(r.det).Cmp(Order) != 0 {
		t.Fatalf("basis determinant %v, want +-n: not a basis of the whole lattice", r.det)
	}
	for i := range r.cof {
		r.cof[i] = bigDet(bigMinor(r.basis, i, 0))
		if i&1 == 1 {
			r.cof[i].Neg(r.cof[i])
		}
	}
	return r
}

func (r *gtSplitReference) decompose(k *big.Int) [4]*big.Int {
	parts := [4]*big.Int{new(big.Int).Set(k), new(big.Int), new(big.Int), new(big.Int)}
	den := new(big.Int).Lsh(r.det, 1)
	for i, row := range r.basis {
		// c = round(k*cof/det) = floor((2*k*cof + det) / (2*det)), on a
		// positive denominator.
		c := new(big.Int).Mul(k, r.cof[i])
		c.Lsh(c, 1).Add(c, r.det)
		if den.Sign() < 0 {
			c.Neg(c)
		}
		c.Div(c, new(big.Int).Abs(den))
		for j := range parts {
			parts[j].Sub(parts[j], new(big.Int).Mul(c, row[j]))
		}
	}
	return parts
}

// TestGTSplitDecompose: the limb decomposition recombines to k mod n along
// the powers of lambda, keeps every part below the bound initGTSplit asserts,
// and agrees part for part with the big.Int reference, on the exponents at
// the edges and on 10^4 random ones. (n-1)/2 comes last: its quotients by the
// odd g[i] are within 2^-65 -- for g[2] = 2u+1, 2^-190 -- of a half-integer,
// closer than the multipliers resolve, so it is the one input where the limb
// version may round to the other neighbour, and only the first two properties
// hold.
func TestGTSplitDecompose(t *testing.T) {
	ref := newGTSplitReference(t)
	ks := append(gtSplitScalars(t, 10000), new(big.Int).Rsh(Order, 1))
	tie := len(ks) - 1
	for i, k := range ks {
		limbs := scalarFromBig(k)
		mags, negs := gtSplitDecompose(&limbs)
		want := ref.decompose(k)
		sum := new(big.Int)
		for j := 3; j >= 0; j-- {
			part := signedLimbs(mags[j], negs[j])
			if part.BitLen() > gtSplitBits {
				t.Fatalf("k=%v: part %d has %d bits", k, j, part.BitLen())
			}
			if i != tie && part.Cmp(want[j]) != 0 {
				t.Fatalf("k=%v: part %d is %v from limbs, %v from big.Int", k, j, part, want[j])
			}
			sum.Mul(sum, gtLambda).Add(sum, part)
		}
		if sum.Mod(sum, Order).Cmp(k) != 0 {
			t.Fatalf("k=%v: parts recombine to %v", k, sum)
		}
	}
}

// TestGTScalarMultMatchesLadder is the differential test of GT.ScalarMult
// against the plain square-and-multiply ladder on the residue -- gfP12.Exp,
// not CyclotomicExp, so the reference shares no code with the subject.
func TestGTScalarMultMatchesLadder(t *testing.T) {
	g1s, g2s, _ := randomPairs(t, 2)
	a, b := Pair(g1s[0], g2s[0]), Pair(g1s[1], g2s[1])
	elements := map[string]*GT{
		"e(g1, g2)":      Pair(GenG1(), GenG2()),
		"pairing value":  a,
		"another":        b,
		"product of two": new(GT).Add(a, b),
		"identity":       new(GT).SetOne(),
		"zero value":     {},
	}
	ks := append(gtSplitScalars(t, 20), new(big.Int).Rsh(Order, 1),
		big.NewInt(-5), Order, new(big.Int).Add(Order, big.NewInt(7)),
		new(big.Int).Sub(new(big.Int).Lsh(bigOne, 256), bigOne))
	for name, a := range elements {
		for _, k := range ks {
			want := newGFp12().Exp(a.point(), new(big.Int).Mod(k, Order))
			if got := new(GT).ScalarMult(a, k); !got.p.Equal(want) {
				t.Fatalf("%s, k=%v: ScalarMult disagrees with the ladder", name, k)
			}
			alias := new(GT).Set(a)
			if alias.ScalarMult(alias, k); !alias.p.Equal(want) {
				t.Fatalf("%s, k=%v: ScalarMult(e, e, k) disagrees with the ladder", name, k)
			}
		}
	}
}
