package bn256

import (
	"context"
	"crypto/rand"
	"errors"
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
		got := new(G1).MultiScalarMult(points, scalars)
		if !got.Equal(naive) {
			t.Fatalf("k=%d: MultiScalarMult disagrees with naive sum", k)
		}
	}
}

func TestMultiScalarMultEdgeCases(t *testing.T) {
	_, p, _ := RandomG1(rand.Reader)

	// All-zero scalars.
	got := new(G1).MultiScalarMult([]*G1{p, p}, []*big.Int{new(big.Int), new(big.Int)})
	if !got.IsInfinity() {
		t.Fatal("all-zero MSM is not infinity")
	}

	// Scalars above the group order must reduce.
	s, _ := rand.Int(rand.Reader, Order)
	big1 := new(big.Int).Add(s, Order)
	a := new(G1).MultiScalarMult([]*G1{p}, []*big.Int{s})
	b := new(G1).MultiScalarMult([]*G1{p}, []*big.Int{big1})
	if !a.Equal(b) {
		t.Fatal("MSM does not reduce scalars mod n")
	}
}

// TestMultiScalarMultDifferential holds Pippenger to the sum of independent
// scalar multiplications on the inputs its bucket logic can get wrong: affine
// and Jacobian points mixed (the latter are normalized together), infinity
// with a non-zero scalar, a repeated point so that a bucket adds P to P, P
// and -P with the same scalar so that a bucket adds P to -P, zero scalars,
// scalars at and above the group order, and small scalars (narrow windows,
// all-equal digits).
func TestMultiScalarMultDifferential(t *testing.T) {
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
	add(aff, same)
	add(affine(aff), same) // P + P in one bucket, every window
	add(jac, same)
	add(new(G1).Neg(jac), same)          // P + (-P), Jacobian
	add(new(G1).Neg(affine(jac)), rnd()) // and a lone negated affine copy
	add(new(G1).SetInfinity(), rnd())
	add(&G1{}, rnd())
	add(aff, new(big.Int))
	add(jac, new(big.Int).Set(Order))
	add(aff, new(big.Int).Add(Order, big.NewInt(7)))
	add(jac, new(big.Int).Sub(Order, big.NewInt(1)))
	add(aff, big.NewInt(-5))
	for i := 0; i < 40; i++ {
		_, p, _ := RandomG1(rand.Reader)
		if i%2 == 0 {
			p = affine(p)
		}
		add(p, rnd())
	}

	check := func(name string, points []*G1, scalars []*big.Int) {
		t.Helper()
		want := new(G1).SetInfinity()
		for i := range points {
			want.Add(want, new(G1).ScalarMult(points[i], scalars[i]))
		}
		for _, workers := range []int{1, 2} {
			if got := new(G1).MultiScalarMultParallel(points, scalars, workers); !got.Equal(want) {
				t.Errorf("%s, workers=%d: MultiScalarMult disagrees with the sum of ScalarMults", name, workers)
			}
			got, err := new(G1).MultiScalarMultCtx(context.Background(), points, scalars, workers)
			if err != nil || !got.Equal(want) {
				t.Errorf("%s, workers=%d: MultiScalarMultCtx = (%v, %v)", name, workers, got, err)
			}
		}
	}
	check("mixed inputs", points, scalars)
	check("pair cancelling to infinity", points[2:4], scalars[2:4])

	small := make([]*big.Int, len(points))
	for i := range small {
		small[i] = big.NewInt(int64(i%4 + 1))
	}
	check("small scalars", points, small)
}

// TestMultiScalarMultCtxCanceled: a context that is already done, or is
// canceled while the windows run, yields ctx.Err() and no result.
func TestMultiScalarMultCtxCanceled(t *testing.T) {
	points, _, scalars := randomPairs(t, 200)
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
	new(G1).MultiScalarMult([]*G1{}, []*big.Int{big.NewInt(1)})
}

func BenchmarkScalarMultG1(b *testing.B) {
	_, p, _ := RandomG1(rand.Reader)
	s, _ := rand.Int(rand.Reader, Order)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G1).ScalarMult(p, s)
	}
}

func BenchmarkMultiScalarMult300(b *testing.B) {
	const k = 300
	points := make([]*G1, k)
	scalars := make([]*big.Int, k)
	for i := 0; i < k; i++ {
		_, points[i], _ = RandomG1(rand.Reader)
		scalars[i], _ = rand.Int(rand.Reader, Order)
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
