package bn256

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"
)

// scaledBaseSumRef is x*(m*g1 + tag), a nil tag the identity, on the
// per-call path ScaledBaseSums replaces in Setup: ScalarBaseMult, Add,
// ScalarMult.
func scaledBaseSumRef(x, m *Scalar, tag *G1) *G1 {
	base := new(G1).ScalarBaseMult(m.Big())
	if tag != nil {
		base.Add(base, tag)
	}
	return base.ScalarMult(base, x.Big())
}

// scaledBaseLane builds lane kind%8 of a differential input from v: a
// hashed tag under a full-width m (0), a copy of the lane before (1), a tag
// equal to -m*g1, so the base is the identity (2), m = 0 (3), a tag equal to
// +(2j+1)*g1 (4) or -(2j+1)*g1 (5) under an m whose lowest comb digit is
// 2j+1, so the comb's first step doubles or cancels, a nil tag (6) and a
// Jacobian tag (7). The walk by x cannot meet equal x on a base of order n
// (a partial sum a + b*lambda with |a|, |b| < 2^128 would have to equal an
// odd table entry), so its equal-x and infinity cases are covered by the
// identity base of kind 2.
func scaledBaseLane(kind byte, v uint16, prevM *Scalar, prevTag *G1) (Scalar, *G1) {
	var m Scalar
	k := new(big.Int).SetUint64(uint64(v)*0x9e3779b97f4a7c15 + 1)
	m.setBig(k.Mul(k, k).Mul(k, k)) // ~256 bits before reduction
	var msg [2]byte
	binary.BigEndian.PutUint16(msg[:], v)
	tag := HashToG1(append([]byte("scaled base lane "), msg[:]...))
	switch kind % 8 {
	case 1:
		if prevTag != nil {
			return *prevM, prevTag
		}
	case 2:
		tag = new(G1).ScalarBaseMult(m.Big())
		tag.Neg(tag)
	case 3:
		m = Scalar{}
	case 4, 5:
		odd := uint64(2*(v%nafOdd) + 1)
		m.l[0] = m.l[0]&^0xff | odd
		tag = new(G1).ScalarBaseMult(new(big.Int).SetUint64(odd))
		if kind%8 == 5 {
			tag.Neg(tag)
		}
	case 6:
		tag = nil
	case 7:
		tag = new(G1).Add(tag, GenG1()) // z != 1
	}
	return m, tag
}

// scaledBaseInput returns d lanes: every kind once, cycling, then hashed
// ones with a duplicate every seventh lane.
func scaledBaseInput(d int) ([]Scalar, []*G1) {
	ms, tags := make([]Scalar, d), make([]*G1, d)
	for i := range ms {
		kind := byte(i)
		if i >= 8 {
			kind = 0
			if i%7 == 0 {
				kind = 1
			}
		}
		var pm *Scalar
		var pt *G1
		if i > 0 {
			pm, pt = &ms[i-1], tags[i-1]
		}
		ms[i], tags[i] = scaledBaseLane(kind, uint16(i*7919), pm, pt)
	}
	return ms, tags
}

// scaledBaseScalars are the multipliers every differential test runs: a
// random full-width x, one below 2^128 (no GLV split), 1 and n - 1.
func scaledBaseScalars(t testing.TB) map[string]Scalar {
	var full, short, one, minusOne Scalar
	if err := full.SetRandom(rand.Reader); err != nil {
		t.Fatal(err)
	}
	short.l = [4]uint64{full.l[0], full.l[1]}
	one.SetUint64(1)
	minusOne.Neg(&one)
	return map[string]Scalar{"random": full, "short": short, "one": one, "n-1": minusOne}
}

// checkLanes compares got with want lane by lane: the same element, and
// affine.
func checkLanes(t *testing.T, what string, got, want []*G1) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) || !bytes.Equal(got[i].Marshal(), want[i].Marshal()) {
			t.Fatalf("%s: lane %d differs from the per-call path", what, i)
		}
		if p := got[i].p; !p.IsInfinity() && !p.z.IsOne() {
			t.Fatalf("%s: lane %d is not affine", what, i)
		}
	}
}

// checkLockstepPaths runs both passes of the kernel on each of their two
// paths, whatever lockstepPays would pick, against want.
func checkLockstepPaths(t *testing.T, x *Scalar, ms []Scalar, tags []*G1, want []*G1) {
	t.Helper()
	k := newLockstepScalar(x)
	for _, batch := range []bool{false, true} {
		lanes := lanesFromG1(tags)
		if batch {
			var s lockstep
			s.comb(lanes, ms)
			s.mul(lanes, k)
		} else {
			combPerPoint(lanes, ms, 2)
			mulPerPoint(lanes, k, 2)
		}
		checkLanes(t, fmt.Sprintf("batch=%v", batch), g1sFromAffine(lanes), want)
	}
}

// TestScaledBaseSumsMatchesPerPoint holds the lockstep kernel to the
// per-call path at the sizes Setup meets (a fleet file's 17 chunks, 128 and
// 512 KiB files' 85 and 339) and at worker counts that put slices on both
// sides of the crossover. -short, which the race and 32-bit steps run,
// stops at 85.
func TestScaledBaseSumsMatchesPerPoint(t *testing.T) {
	sizes := []int{0, 1, 2, 17, 85, 339}
	if testing.Short() {
		sizes = sizes[:5]
	}
	for name, x := range scaledBaseScalars(t) {
		for _, d := range sizes {
			ms, tags := scaledBaseInput(d)
			want := make([]*G1, d)
			for i := range want {
				want[i] = scaledBaseSumRef(&x, &ms[i], tags[i])
			}
			for _, workers := range []int{1, 2, 4} {
				checkLanes(t, fmt.Sprintf("x=%s d=%d workers=%d", name, d, workers),
					ScaledBaseSums(&x, ms, tags, workers), want)
			}
			if d <= 17 {
				checkLockstepPaths(t, &x, ms, tags, want)
			}
		}
	}
}

// TestLockstepPicksPath pins lockstepPays where Setup meets it: a fleet
// file's 17 chunks, about 8 per worker, stay per point in both passes; an
// onboarded 128 KiB file's 42 per worker and a 512 KiB file's 170 take the
// lockstep path in both; the comb alone (a key's powers) crosses first.
func TestLockstepPicksPath(t *testing.T) {
	var x Scalar
	if err := x.SetRandom(rand.Reader); err != nil {
		t.Fatal(err)
	}
	k := newLockstepScalar(&x)
	for _, c := range []struct {
		lanes      int
		comb, walk bool
	}{{4, false, false}, {8, false, false}, {17, false, false}, {24, true, false}, {42, true, true}, {170, true, true}} {
		comb, walk := combPays(c.lanes), k.walkPays(c.lanes)
		if comb != c.comb || walk != c.walk {
			t.Errorf("%d lanes: lockstep comb %v, walk %v; want %v, %v", c.lanes, comb, walk, c.comb, c.walk)
		}
	}
}

// TestScaledBaseSumsZeroScalar: x = 0 sends every lane to the identity.
func TestScaledBaseSumsZeroScalar(t *testing.T) {
	ms, tags := scaledBaseInput(9)
	want := make([]*G1, len(ms))
	for i := range want {
		want[i] = new(G1).SetInfinity()
	}
	checkLanes(t, "x=0", ScaledBaseSums(&Scalar{}, ms, tags, 1), want)
	checkLockstepPaths(t, &Scalar{}, ms, tags, want)
}

// TestScalarBaseMultBatch holds the comb from infinity to ScalarBaseMult on
// both of its paths.
func TestScalarBaseMultBatch(t *testing.T) {
	for _, d := range []int{0, 1, 4, 50} {
		ks := make([]Scalar, d)
		want := make([]*G1, d)
		for i := range ks {
			switch i {
			case 0: // zero
			case 1:
				ks[i].SetUint64(1)
			case 2:
				ks[i].Neg(&ks[1])
			default:
				if err := ks[i].SetRandom(rand.Reader); err != nil {
					t.Fatal(err)
				}
			}
			want[i] = new(G1).ScalarBaseMult(ks[i].Big())
		}
		checkLanes(t, fmt.Sprintf("d=%d", d), ScalarBaseMultBatch(ks), want)
		for _, batch := range []bool{false, true} {
			lanes := make([]affinePoint, d)
			if batch {
				new(lockstep).comb(lanes, ks)
			} else {
				combPerPoint(lanes, ks, 1)
			}
			checkLanes(t, fmt.Sprintf("d=%d batch=%v", d, batch), g1sFromAffine(lanes), want)
		}
	}
}

// FuzzScaledBaseSums holds both paths of the kernel and ScaledBaseSums at
// one and three workers to the per-call path. The input is x's kind and
// eight bytes (a full-width power, 1, n - 1, or a short value), then 3-byte
// lane records, kind and value, as scaledBaseLane reads them; at most 48
// lanes.
func FuzzScaledBaseSums(f *testing.F) {
	every := []byte{0, 0x12, 0x34}
	for kind := byte(0); kind < 8; kind++ {
		every = append(every, kind, kind, 0x5a^kind)
	}
	x := []byte{0, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}
	for xk := byte(0); xk < 4; xk++ {
		f.Add(append([]byte{xk}, append(x[1:], every...)...))
	}
	var dupes, cancels []byte
	for i := 0; i < 40; i++ {
		dupes = append(dupes, byte(i%2), 0, 7)
		cancels = append(cancels, byte(2+3*(i%2)), byte(i), byte(i))
	}
	f.Add(append(x, dupes...))
	f.Add(append(x, cancels...))
	f.Add(x)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		var x Scalar
		k := new(big.Int).SetBytes(data[1:9])
		switch data[0] % 4 {
		case 0:
			x.setBig(k.Mul(k, k).Mul(k, k).Mul(k, k))
		case 1:
			x.SetUint64(1)
		case 2:
			x.Neg(new(Scalar).SetUint64(1))
		case 3:
			x.setBig(k)
		}
		data = data[9:]
		if len(data) > 3*48 {
			data = data[:3*48]
		}
		var ms []Scalar
		var tags []*G1
		for ; len(data) >= 3; data = data[3:] {
			var pm *Scalar
			var pt *G1
			if n := len(ms); n > 0 {
				pm, pt = &ms[n-1], tags[n-1]
			}
			m, tag := scaledBaseLane(data[0], binary.BigEndian.Uint16(data[1:3]), pm, pt)
			ms, tags = append(ms, m), append(tags, tag)
		}
		want := make([]*G1, len(ms))
		for i := range want {
			want[i] = scaledBaseSumRef(&x, &ms[i], tags[i])
		}
		checkLockstepPaths(t, &x, ms, tags, want)
		for _, workers := range []int{1, 3} {
			checkLanes(t, fmt.Sprintf("workers=%d", workers), ScaledBaseSums(&x, ms, tags, workers), want)
		}
	})
}

// BenchmarkScaledBaseSums times each pass of one slice of the kernel on
// each of its paths, one worker, at the slice lengths Setup meets: the fit
// behind lockstepPays. The per-call row is the whole of the path Setup took
// before, ScalarBaseMult, Add and ScalarMult per chunk.
func BenchmarkScaledBaseSums(b *testing.B) {
	var x Scalar
	if err := x.SetRandom(rand.Reader); err != nil {
		b.Fatal(err)
	}
	k := newLockstepScalar(&x)
	for _, d := range []int{8, 42, 85, 170, 339} {
		ms := make([]Scalar, d)
		tags := make([]*G1, d)
		for i := range ms {
			if err := ms[i].SetRandom(rand.Reader); err != nil {
				b.Fatal(err)
			}
			tags[i] = HashToG1([]byte(fmt.Sprintf("bench lane %d", i)))
		}
		src := lanesFromG1(tags)
		lanes := make([]affinePoint, d)
		for _, method := range []string{"comb/lockstep", "comb/perpoint", "walk/lockstep", "walk/perpoint", "percall"} {
			b.Run(fmt.Sprintf("points=%d/%s", d, method), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(lanes, src)
					switch method {
					case "comb/lockstep":
						new(lockstep).comb(lanes, ms)
					case "comb/perpoint":
						combPerPoint(lanes, ms, 1)
					case "walk/lockstep":
						new(lockstep).mul(lanes, k)
					case "walk/perpoint":
						mulPerPoint(lanes, k, 1)
					case "percall":
						for j := range ms {
							scaledBaseSumRef(&x, &ms[j], tags[j])
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d)/1e3, "us/point")
			})
		}
	}
}
