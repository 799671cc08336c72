package attack

import (
	"crypto/rand"
	"testing"

	"repro/internal/bn256"
	"repro/internal/poly"
)

func randScalar(t testing.TB) bn256.Scalar {
	t.Helper()
	var s bn256.Scalar
	if err := s.SetRandom(rand.Reader); err != nil {
		t.Fatal(err)
	}
	return s
}

func randScalars(t testing.TB, n int) []bn256.Scalar {
	out := make([]bn256.Scalar, n)
	for i := range out {
		out[i] = randScalar(t)
	}
	return out
}

func randPoly(t testing.TB, deg int) *poly.Poly { return &poly.Poly{Coeffs: randScalars(t, deg+1)} }

func scalar(v int64) bn256.Scalar {
	var s bn256.Scalar
	if v < 0 {
		s.Neg(s.SetUint64(uint64(-v))) // -MinInt64 wraps to its own magnitude
		return s
	}
	s.SetUint64(uint64(v))
	return s
}

// equal reports mathematical equality (ignoring trailing zeros).
func equal(p, q *poly.Poly) bool {
	n := max(len(p.Coeffs), len(q.Coeffs))
	for i := 0; i < n; i++ {
		var a, b bn256.Scalar
		if i < len(p.Coeffs) {
			a = p.Coeffs[i]
		}
		if i < len(q.Coeffs) {
			b = q.Coeffs[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

func TestInterpolate(t *testing.T) {
	p := randPoly(t, 6)
	xs := randScalars(t, 7)
	ys := make([]bn256.Scalar, len(xs))
	for i := range xs {
		ys[i] = p.Eval(&xs[i])
	}
	got, err := interpolate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, p) {
		t.Fatal("interpolation did not recover the polynomial")
	}
}

func TestInterpolateRejectsDuplicates(t *testing.T) {
	xs := []bn256.Scalar{scalar(1), scalar(1)}
	ys := []bn256.Scalar{scalar(2), scalar(3)}
	if _, err := interpolate(xs, ys); err == nil {
		t.Fatal("accepted duplicate abscissae")
	}
	if _, err := interpolate(xs, ys[:1]); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

func BenchmarkInterpolate(b *testing.B) {
	const k = 50
	xs, ys := randScalars(b, k), randScalars(b, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interpolate(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
