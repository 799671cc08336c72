package prf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/big"
	"testing"
	"testing/quick"
)

func TestScalarDeterministic(t *testing.T) {
	seed := []byte("0123456789abcdef")
	a := scalar(seed, 7)
	b := scalar(seed, 7)
	if a != b {
		t.Fatal("Scalar is not deterministic")
	}
	c := scalar(seed, 8)
	if a == c {
		t.Fatal("distinct counters produced identical scalars")
	}
	d := scalar([]byte("fedcba9876543210"), 7)
	if a == d {
		t.Fatal("distinct seeds produced identical scalars")
	}
}

func TestCoefficientsLength(t *testing.T) {
	cs := Coefficients([]byte("seed"), 300)
	if len(cs) != 300 {
		t.Fatalf("got %d coefficients, want 300", len(cs))
	}
	bound := new(big.Int).Lsh(big.NewInt(1), 128)
	for i, c := range cs {
		if c.Big().Cmp(bound) >= 0 {
			t.Fatalf("coefficient %d = %v, outside [0, 2^128)", i, c)
		}
	}
	// A small file caps k at its chunk count: a shorter expansion, an odd
	// one included, is a prefix of the longer one.
	for _, k := range []int{0, 1, 7} {
		for i, c := range Coefficients([]byte("seed"), k) {
			if c != cs[i] {
				t.Fatalf("k=%d: coefficient %d differs from the k=300 expansion", k, i)
			}
		}
	}
}

func TestIndicesDistinct(t *testing.T) {
	for _, tc := range []struct{ d, k int }{
		{10, 10}, {1000, 300}, {5, 1}, {1, 1}, {7, 0},
	} {
		idx, err := Indices([]byte("seed"), tc.d, tc.k)
		if err != nil {
			t.Fatalf("d=%d k=%d: %v", tc.d, tc.k, err)
		}
		if len(idx) != tc.k {
			t.Fatalf("d=%d k=%d: got %d indices", tc.d, tc.k, len(idx))
		}
		seen := make(map[int]bool)
		for _, i := range idx {
			if i < 0 || i >= tc.d {
				t.Fatalf("index %d outside [0, %d)", i, tc.d)
			}
			if seen[i] {
				t.Fatalf("duplicate index %d (d=%d k=%d)", i, tc.d, tc.k)
			}
			seen[i] = true
		}
	}
}

func TestIndicesFullDomainIsPermutation(t *testing.T) {
	const d = 64
	idx, err := Indices([]byte("permseed"), d, d)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, d)
	for _, i := range idx {
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d missing from full-domain selection", i)
		}
	}
}

func TestIndicesErrors(t *testing.T) {
	if _, err := Indices([]byte("s"), 5, 6); err == nil {
		t.Fatal("accepted k > d")
	}
	if _, err := Indices([]byte("s"), -1, 0); err == nil {
		t.Fatal("accepted negative domain")
	}
}

func TestIndicesDeterministic(t *testing.T) {
	a, _ := Indices([]byte("seed-x"), 100, 30)
	b, _ := Indices([]byte("seed-x"), 100, 30)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Indices is not deterministic")
		}
	}
	c, _ := Indices([]byte("seed-y"), 100, 30)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical index sequences")
	}
}

// TestExpansionGolden pins the bytes of a paper-sized expansion (338 chunks,
// k = 300): prover and verifier on different versions must derive the same
// challenge from the same 48 on-chain bytes. The digest was printed when the
// coefficients became 128 bits wide, two per PRF block.
func TestExpansionGolden(t *testing.T) {
	seed := []byte("golden-seed-0123")
	h := sha256.New()
	idx, err := Indices(seed, 338, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range idx {
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(i)))
	}
	for _, c := range Coefficients(seed, 300) {
		b := c.Bytes()
		h.Write(b[:])
	}
	r := EvalPoint(seed).Bytes()
	h.Write(r[:])
	const want = "25b084aa5c11a7ac83c7b50f2ce70ad8a3097256b68475e62a51113793ff4db2"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("expansion digest = %s, want %s", got, want)
	}
}

func TestOracleGT(t *testing.T) {
	a := OracleGT([]byte("some GT bytes"))
	b := OracleGT([]byte("some GT bytes"))
	if a != b {
		t.Fatal("OracleGT not deterministic")
	}
	c := OracleGT([]byte("other GT bytes"))
	if a == c {
		t.Fatal("OracleGT collision on trivially distinct inputs")
	}
}

func TestEvalPointUniformish(t *testing.T) {
	// Sanity: different seeds give different points.
	a := EvalPoint([]byte("aaaaaaaaaaaaaaaa"))
	b := EvalPoint([]byte("bbbbbbbbbbbbbbbb"))
	if a == b {
		t.Fatal("EvalPoint collision")
	}
}

func TestQuickIndicesAlwaysDistinct(t *testing.T) {
	f := func(seed []byte, dRaw, kRaw uint8) bool {
		d := int(dRaw%200) + 1
		k := int(kRaw) % (d + 1)
		idx, err := Indices(seed, d, k)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= d || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPRFBlockTagSeparation(t *testing.T) {
	seed := []byte("shared-seed")
	var a, b [32]byte
	prfBlock(keyed(seed), 0x01, 5, &a)
	prfBlock(keyed(seed), 0x02, 5, &b)
	if a == b {
		t.Fatal("domain tags do not separate PRF streams")
	}
}

// TestCoefficientsAllocs pins the expansion's garbage: the k coefficients
// are one slab of Scalars and every HMAC block lands in one buffer, so a
// k = 300 expansion allocates a dozen times (keying the HMAC is most of it),
// not once per block or coefficient.
func TestCoefficientsAllocs(t *testing.T) {
	seed := []byte("0123456789abcdef")
	if got := testing.AllocsPerRun(5, func() { Coefficients(seed, 300) }); got > 20 {
		t.Fatalf("Coefficients(k = 300): %v allocations, want at most 20", got)
	}
}
