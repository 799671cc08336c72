package bn256

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"
	"testing"
)

func TestMultiScalarMultMatchesNaive(t *testing.T) {
	for _, k := range []int{0, 1, 2, 17, 64} {
		points := make([]*G1, k)
		scalars := make([]*big.Int, k)
		naive := new(G1).SetInfinity()
		for i := 0; i < k; i++ {
			_, p, err := RandomG1(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			s, _ := rand.Int(rand.Reader, Order)
			points[i] = p
			scalars[i] = s
			naive.Add(naive, new(G1).ScalarMult(p, s))
		}
		got := new(G1).MultiScalarMult(points, scalarsFromBig(scalars))
		if !got.Equal(naive) {
			t.Fatalf("k=%d: MultiScalarMult disagrees with naive sum", k)
		}
	}
}

func TestMultiScalarMultEdgeCases(t *testing.T) {
	_, p, _ := RandomG1(rand.Reader)

	// All-zero scalars.
	got := new(G1).MultiScalarMult([]*G1{p, p}, make([]Scalar, 2))
	if !got.IsInfinity() {
		t.Fatal("all-zero MSM is not infinity")
	}

	// The big.Int form reduces scalars above the group order.
	s, _ := rand.Int(rand.Reader, Order)
	big1 := new(big.Int).Add(s, Order)
	a := new(G1).MultiScalarMultParallel([]*G1{p}, []*big.Int{s}, 1)
	b := new(G1).MultiScalarMultParallel([]*G1{p}, []*big.Int{big1}, 1)
	if !a.Equal(b) {
		t.Fatal("MSM does not reduce scalars mod n")
	}
}

// msmHardInputs builds n point/scalar pairs that between them take every
// branch of the bucket reduction, padded with random pairs (half of them
// Jacobian, so the shared normalization runs too): one point several times
// with one scalar, so that a segment adds P to P in every window and then the
// doubled points to each other; P and -P with one scalar, so that a pair
// cancels to infinity mid-reduction and later rounds add into that bucket;
// the same again under small scalars, where all of it lands in one or two
// buckets; infinity, the zero G1 and a G1 with a nil pointer among live
// entries; zero scalars, scalars at and above the group order, negative ones.
func msmHardInputs(t testing.TB, n int) ([]*G1, []*big.Int) {
	t.Helper()
	affine := func(p *G1) *G1 {
		var q G1
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		return &q
	}
	rnd := func() *big.Int {
		s, _ := rand.Int(rand.Reader, Order)
		return s
	}
	_, jac, _ := RandomG1(rand.Reader)
	if jac.p.z.IsOne() {
		t.Fatal("RandomG1 returned an affine point; the Jacobian path is not exercised")
	}
	aff := HashToG1([]byte("msm differential"))
	same := rnd()

	var points []*G1
	var scalars []*big.Int
	add := func(p *G1, s *big.Int) {
		points = append(points, p)
		scalars = append(scalars, s)
	}
	add(jac, same)
	add(new(G1).Neg(jac), same) // P + (-P): the first two cancel alone when n = 2
	add(aff, same)
	add(affine(aff), same) // P + P in one bucket, every window
	add(aff, same)
	add(jac, same) // more into the bucket the first pair emptied
	add(affine(jac), same)
	add(new(G1).Neg(affine(jac)), rnd()) // a lone negated affine copy
	add(new(G1).SetInfinity(), rnd())
	add(&G1{}, rnd())
	add(aff, new(big.Int))
	add(jac, new(big.Int).Set(Order))
	add(aff, new(big.Int).Add(Order, big.NewInt(7)))
	add(jac, new(big.Int).Sub(Order, big.NewInt(1)))
	add(aff, big.NewInt(-5))
	add(jac, new(big.Int).Lsh(same, 70)) // wider than 256 bits
	for _, small := range []int64{1, 1, 2, 3, 3, 3} {
		add(aff, big.NewInt(small))
		add(new(G1).Neg(aff), big.NewInt(small))
		add(jac, big.NewInt(small))
	}
	for i := 0; len(points) < n; i++ {
		_, p, _ := RandomG1(rand.Reader)
		if i%2 == 0 {
			p = affine(p)
		}
		add(p, rnd())
	}
	return points[:n], scalars[:n]
}

// msmNaive is the sum of independent scalar multiplications; the first few
// run on the unreduced double-and-add ladder, so the reference does not rest
// on the GLV decomposition the multi-scalar multiplication shares.
func msmNaive(points []*G1, scalars []*big.Int) *G1 {
	want := new(G1).SetInfinity()
	for i := range points {
		term := new(G1).ScalarMult(points[i], scalars[i])
		if i < 6 && points[i].p != nil {
			term.p.Mul(points[i].p, new(big.Int).Mod(scalars[i], Order))
		}
		want.Add(want, term)
	}
	return want
}

// TestMultiScalarMultDifferential holds the multi-scalar multiplication to
// msmNaive at every size the system sends and the ones around the group
// sizing rule, at several worker counts, on msmHardInputs.
func TestMultiScalarMultDifferential(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 8, 49, 300, 1200}
	if testing.Short() {
		sizes = []int{0, 1, 2, 3, 8, 49, 300}
	}
	for _, n := range sizes {
		points, scalars := msmHardInputs(t, n)
		want := msmNaive(points, scalars)
		for _, workers := range []int{1, 2, 4} {
			if got := new(G1).MultiScalarMultParallel(points, scalars, workers); !got.Equal(want) {
				t.Errorf("n=%d, workers=%d: MultiScalarMult disagrees with the sum of ScalarMults", n, workers)
			}
			got, err := new(G1).MultiScalarMultCtx(context.Background(), points, scalarsFromBig(scalars), workers)
			if err != nil || !got.Equal(want) {
				t.Errorf("n=%d, workers=%d: MultiScalarMultCtx = (%v, %v)", n, workers, got, err)
			}
		}
	}

	// All-zero scalars, and small ones everywhere (narrow windows, every
	// entry in the same few buckets).
	points, _ := msmHardInputs(t, 40)
	zeros, small := make([]*big.Int, len(points)), make([]*big.Int, len(points))
	for i := range points {
		zeros[i], small[i] = new(big.Int), big.NewInt(int64(i%4+1))
	}
	if !new(G1).MultiScalarMult(points, scalarsFromBig(zeros)).IsInfinity() {
		t.Error("all-zero scalars: not infinity")
	}
	if !new(G1).MultiScalarMult(points, scalarsFromBig(small)).Equal(msmNaive(points, small)) {
		t.Error("small scalars: MultiScalarMult disagrees with the sum of ScalarMults")
	}
}

// TestMultiScalarMultShortAndFull mixes, in one call, scalars on both sides
// of 2^128, where glvDecompose switches from Babai rounding to (k, 0) and an
// entry's phi half goes from live to zero, with the ends of [0, n) and lambda
// (whose Babai halves are (0, 1)); every case runs at workers 1 and 3 against
// the sum of ScalarMults, each of which is held to the plain ladder. The last
// case holds the big.Int form, which reduces its scalars mod n, to the same
// sum on scalars at and above n, negative, zero and around 2^128.
func TestMultiScalarMultShortAndFull(t *testing.T) {
	pow2 := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	boundary := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		pow2(64),
		new(big.Int).Sub(pow2(128), big.NewInt(1)),
		pow2(128),
		new(big.Int).Add(pow2(128), big.NewInt(1)),
		new(big.Int).Set(glvLambda),
		new(big.Int).Sub(Order, big.NewInt(1)),
	}
	repeat := func(ks []*big.Int, times int) (out []*big.Int) {
		for i := 0; i < times; i++ {
			out = append(out, ks...)
		}
		return out
	}
	short, _ := rand.Int(rand.Reader, pow2(128))
	full, _ := rand.Int(rand.Reader, Order)
	cases := []struct {
		name    string
		scalars []*big.Int
	}{
		{"boundary", boundary},
		{"boundary, 8 times", repeat(boundary, 8)}, // 128 entries: two window groups for the workers
		{"short only", boundary[:4]},
		{"one full among short", []*big.Int{short, short, short, full, big.NewInt(3), pow2(127)}},
		{"one short among full", []*big.Int{full, full, full, short, boundary[7], boundary[6]}},
		{"unreduced, big.Int form", []*big.Int{
			new(big.Int).Set(Order), new(big.Int).Add(Order, pow2(128)), big.NewInt(-5),
			big.NewInt(0), new(big.Int).Neg(pow2(128)), new(big.Int).Add(Order, big.NewInt(1)),
			new(big.Int).Sub(pow2(128), Order), pow2(300), new(big.Int).Neg(full),
		}},
	}
	_, jac, _ := RandomG1(rand.Reader)
	for _, tc := range cases {
		points := make([]*G1, len(tc.scalars))
		want := new(G1).SetInfinity()
		for i, k := range tc.scalars {
			switch i % 3 {
			case 0:
				points[i] = HashToG1([]byte(fmt.Sprintf("short and full %d", i)))
			case 1:
				points[i] = new(G1).Add(jac, HashToG1([]byte(fmt.Sprintf("jacobian %d", i))))
			default:
				points[i] = new(G1).Neg(points[i-1]) // cancels it where their scalars match
			}
			term := new(G1).ScalarMult(points[i], k)
			if !term.p.Equal(newCurvePoint().Mul(points[i].p, k)) {
				t.Fatalf("%s: ScalarMult(P, %v) disagrees with the ladder", tc.name, k)
			}
			want.Add(want, term)
		}
		ks := scalarsFromBig(tc.scalars)
		for _, workers := range []int{1, 3} {
			if got, err := new(G1).MultiScalarMultCtx(context.Background(), points, ks, workers); err != nil || !got.Equal(want) {
				t.Errorf("%s, workers=%d: MultiScalarMult disagrees with the sum of ScalarMults", tc.name, workers)
			}
			if got := new(G1).MultiScalarMultParallel(points, tc.scalars, workers); !got.Equal(want) {
				t.Errorf("%s, workers=%d: the big.Int form disagrees with the sum of ScalarMults", tc.name, workers)
			}
		}
	}
}

// TestMultiScalarMultLeavesInputsAlone: the inputs -- shared by every prover
// of a file -- come back bit for bit, Jacobian ones included.
func TestMultiScalarMultLeavesInputsAlone(t *testing.T) {
	points, scalars := msmHardInputs(t, 60)
	before := make([]curvePoint, len(points))
	for i, p := range points {
		if p.p != nil {
			before[i] = *p.p
		}
	}
	ks := scalarsFromBig(scalars)
	kept := append([]Scalar(nil), ks...)
	if _, err := new(G1).MultiScalarMultCtx(context.Background(), points, ks, 2); err != nil {
		t.Fatal(err)
	}
	for i := range ks {
		if ks[i] != kept[i] {
			t.Fatalf("scalar %d was written to", i)
		}
	}
	for i, p := range points {
		if p.p != nil && *p.p != before[i] {
			t.Fatalf("point %d was written to", i)
		}
	}
	if points[9].p != nil {
		t.Fatal("the zero G1 was materialized")
	}
}

// TestMultiScalarMultAllocs: scalars are limbs and the bucket scratch is
// pooled, so a 300-point multiplication allocates a handful of slices, not
// one per scalar.
func TestMultiScalarMultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	points, _, bigs := randomPairs(t, 300)
	scalars := scalarsFromBig(bigs)
	var e G1
	e.MultiScalarMult(points, scalars) // warm the pool
	if allocs := testing.AllocsPerRun(10, func() { e.MultiScalarMult(points, scalars) }); allocs > 8 {
		t.Fatalf("300-point MultiScalarMult allocates %.0f times, want <= 8", allocs)
	}
}

// TestMultiScalarMultCtxCanceled: a context that is already done, or is
// canceled while the windows run, yields ctx.Err() and no result.
func TestMultiScalarMultCtxCanceled(t *testing.T) {
	points, _, bigs := randomPairs(t, 200)
	scalars := scalarsFromBig(bigs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		got, err := new(G1).MultiScalarMultCtx(ctx, points, scalars, workers)
		if got != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: canceled MultiScalarMultCtx = (%v, %v)", workers, got, err)
		}
	}

	// Canceled by the fifth poll, i.e. inside a window's bucket pass.
	for _, workers := range []int{1, 2} {
		inner, cancel := context.WithCancel(context.Background())
		ctx := &cancelOnPoll{Context: inner, cancel: cancel}
		got, err := new(G1).MultiScalarMultCtx(ctx, points, scalars, workers)
		if got != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: MultiScalarMultCtx canceled in flight = (%v, %v)", workers, got, err)
		}
	}
}

// cancelOnPoll is a context that cancels itself the fifth time its Err is
// polled.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
}

func (c *cancelOnPoll) Err() error {
	if c.polls.Add(1) == 5 {
		c.cancel()
	}
	return c.Context.Err()
}

func TestMultiScalarMultPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	new(G1).MultiScalarMult([]*G1{}, make([]Scalar, 1))
}

func BenchmarkScalarMultG1(b *testing.B) {
	_, p, _ := RandomG1(rand.Reader)
	s, _ := rand.Int(rand.Reader, Order)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G1).ScalarMult(p, s)
	}
}

// The three sizes the workloads send: the tiny proofs of the fleets, psi over
// the s-1 = 49 powers, and sigma / chi over the k = 300 challenged chunks.
func BenchmarkMultiScalarMult8(b *testing.B)   { benchmarkMultiScalarMult(b, 8, Order) }
func BenchmarkMultiScalarMult49(b *testing.B)  { benchmarkMultiScalarMult(b, 49, Order) }
func BenchmarkMultiScalarMult300(b *testing.B) { benchmarkMultiScalarMult(b, 300, Order) }

// BenchmarkMultiScalarMult300Short is the prover's sigma: 300 points under
// 128-bit challenge coefficients.
func BenchmarkMultiScalarMult300Short(b *testing.B) {
	benchmarkMultiScalarMult(b, 300, new(big.Int).Lsh(big.NewInt(1), 128))
}

func benchmarkMultiScalarMult(b *testing.B, k int, bound *big.Int) {
	points := make([]*G1, k)
	scalars := make([]Scalar, k)
	for i := 0; i < k; i++ {
		_, points[i], _ = RandomG1(rand.Reader)
		s, _ := rand.Int(rand.Reader, bound)
		scalars[i].SetBig(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G1).MultiScalarMult(points, scalars)
	}
}

func BenchmarkPairing(b *testing.B) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(p, q)
	}
}
