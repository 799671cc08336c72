package attack

import (
	"crypto/rand"
	mrand "math/rand"
	"slices"
	"testing"

	"repro/internal/bn256"
	"repro/internal/core"
)

// victim builds a small outsourced file and its prover (the unwitting
// storage provider that answers challenges honestly).
func victim(t *testing.T, s, fileBytes int) (*core.Prover, *core.EncodedFile) {
	t.Helper()
	sk, err := core.KeyGen(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, fileBytes)
	rand.Read(data)
	ef, err := core.EncodeFile(data, s)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := core.Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := core.NewProver(sk.Pub, ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	return prover, ef
}

func TestPassiveObserverRecoversNonPrivateData(t *testing.T) {
	// Small file (the paper's "extreme case of data of small size"):
	// 3 chunks x 4 blocks = 12 unknowns, so ~12 observed audits suffice.
	const s = 4
	prover, ef := victim(t, s, 300)
	d := ef.NumChunks()

	obs := NewPassiveObserver(d, s)
	need := obs.Unknowns()
	for round := 0; obs.Equations() < need+2; round++ {
		ch, err := core.NewChallenge(d, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := prover.Prove(ch, nil) // the NON-private protocol
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.Ingest(&Observation{Challenge: ch, Y: proof.Y}); err != nil {
			t.Fatal(err)
		}
	}

	blocks, err := obs.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Every recovered block must equal the real data.
	for i := 0; i < d; i++ {
		for j := 0; j < s; j++ {
			if blocks[i*s+j] != ef.Chunks[i].Coeffs[j] {
				t.Fatalf("block (%d,%d) not recovered", i, j)
			}
		}
	}
	// And the reshaped file must decode to the same chunk polynomials.
	rec := obs.RecoveredFile(blocks)
	for i := 0; i < d; i++ {
		if !slices.Equal(rec.Chunks[i].Coeffs, ef.Chunks[i].Coeffs) {
			t.Fatalf("chunk %d mismatch after reshape", i)
		}
	}
}

func TestPassiveObserverInsufficientObservations(t *testing.T) {
	obs := NewPassiveObserver(3, 4)
	if _, err := obs.Recover(); err == nil {
		t.Fatal("recovered from zero observations")
	}
}

func TestPassiveObserverFailsAgainstPrivateProofs(t *testing.T) {
	// Same pipeline, but the victim runs ProvePrivate: the observer sees
	// y' = zeta*y + z instead of y. Recovery must NOT match the data.
	const s = 3
	prover, ef := victim(t, s, 200)
	d := ef.NumChunks()

	obs := NewPassiveObserver(d, s)
	for obs.Equations() < obs.Unknowns()+2 {
		ch, _ := core.NewChallenge(d, rand.Reader)
		proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// The adversary mistakes y' for y (it has nothing else).
		if err := obs.Ingest(&Observation{Challenge: ch, Y: proof.YPrime}); err != nil {
			t.Fatal(err)
		}
	}
	blocks, err := obs.Recover()
	if err != nil {
		// Singular system is also a fine outcome for the defender.
		return
	}
	matches := 0
	for i := 0; i < d; i++ {
		for j := 0; j < s; j++ {
			if blocks[i*s+j] == ef.Chunks[i].Coeffs[j] {
				matches++
			}
		}
	}
	if matches != 0 {
		t.Fatalf("private protocol leaked %d/%d blocks", matches, d*s)
	}
}

func TestEclipseAdversaryRecoversChallengedChunks(t *testing.T) {
	const s = 5
	prover, ef := victim(t, s, 1200)
	d := ef.NumChunks()

	adv := NewEclipseAdversary(d, s)
	const k = 3 // chunks per challenge; u = k challenged chunks get recovered
	sets := k + 1
	crafted := adv.CraftedChallenges(k, sets)

	// The eclipsed victim answers every crafted challenge honestly with
	// the non-private protocol.
	responses := make([][]bn256.Scalar, sets)
	for t2 := range crafted {
		responses[t2] = make([]bn256.Scalar, len(crafted[t2]))
		for v, ch := range crafted[t2] {
			proof, err := prover.Prove(ch, nil)
			if err != nil {
				t.Fatal(err)
			}
			responses[t2][v] = proof.Y
		}
	}

	recovered, err := adv.RecoverFromBatches(crafted, responses)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != k {
		t.Fatalf("recovered %d chunks, want %d", len(recovered), k)
	}
	for idx, coeffs := range recovered {
		for j := 0; j < s; j++ {
			if coeffs[j] != ef.Chunks[idx].Coeffs[j] {
				t.Fatalf("eclipse recovery wrong at chunk %d pos %d", idx, j)
			}
		}
	}

	// Efficiency claim: s*u observations per the paper.
	if got := ObservationsNeeded(s, k); got != s*k {
		t.Fatalf("ObservationsNeeded = %d", got)
	}
}

func TestEclipseAdversaryValidation(t *testing.T) {
	adv := NewEclipseAdversary(10, 4)
	if _, err := adv.RecoverFromBatches(nil, nil); err == nil {
		t.Fatal("accepted empty batches")
	}
	crafted := adv.CraftedChallenges(3, 2) // 2 sets < 3 chunks
	responses := make([][]bn256.Scalar, 2)
	for i := range responses {
		responses[i] = scalars(1, 1, 1, 1)
	}
	if _, err := adv.RecoverFromBatches(crafted, responses); err == nil {
		t.Fatal("accepted too few coefficient sets")
	}
}

func TestPrivateTrailBiasUniform(t *testing.T) {
	const s = 3
	prover, ef := victim(t, s, 150)
	d := ef.NumChunks()

	// A seeded stream, so a run's statistic is reproducible: the null
	// distribution below has a false-alarm tail, and an unseeded draw
	// would make the test fail at random on a correct prover.
	rng := mrand.New(mrand.NewSource(1))
	var ys []bn256.Scalar
	for i := 0; i < 200; i++ {
		ch, _ := core.NewChallenge(d, rng)
		proof, err := prover.ProvePrivate(ch, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		ys = append(ys, proof.YPrime)
	}
	bias := PrivateTrailBias(ys, 8)
	// Normalized chi-square ~1 for uniform. The slack must cover the
	// sampling noise of 200 draws: at 7 degrees of freedom a 2.5 cutoff
	// false-alarms on ~1.5% of streams, while genuine leakage (a linear
	// trail) sits orders of magnitude higher, so 3.5 (~0.1% false-alarm)
	// loses no detection power.
	if bias > 3.5 {
		t.Fatalf("private trail bias %.2f suggests leakage", bias)
	}
	if PrivateTrailBias(nil, 8) != 0 || PrivateTrailBias(ys, 1) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
}

// scalars returns the small integers vs as field elements.
func scalars(vs ...uint64) []bn256.Scalar {
	out := make([]bn256.Scalar, len(vs))
	for i, v := range vs {
		out[i].SetUint64(v)
	}
	return out
}

func randomScalars(t *testing.T, k int) []bn256.Scalar {
	out := make([]bn256.Scalar, k)
	for i := range out {
		if err := out[i].SetRandom(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestSolveLinearSystem(t *testing.T) {
	// Build a random system with a known solution and solve it back.
	const k = 8
	xTrue := randomScalars(t, k)
	a := make([][]bn256.Scalar, k)
	b := make([]bn256.Scalar, k)
	for i := range a {
		a[i] = randomScalars(t, k)
		var term bn256.Scalar
		for j := range a[i] {
			b[i].Add(&b[i], term.Mul(&a[i][j], &xTrue[j]))
		}
	}
	aCopy := make([][]bn256.Scalar, k)
	for i := range a {
		aCopy[i] = append([]bn256.Scalar(nil), a[i]...)
	}
	x, err := SolveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != xTrue[i] {
			t.Fatalf("solver returned wrong solution at %d", i)
		}
		for j := range a[i] {
			if a[i][j] != aCopy[i][j] {
				t.Fatal("solver modified its input")
			}
		}
	}
}

func TestSolveLinearSystemSingular(t *testing.T) {
	// Two identical rows: singular.
	a := [][]bn256.Scalar{scalars(1, 2), scalars(1, 2)}
	if _, err := SolveLinearSystem(a, scalars(3, 3)); err == nil {
		t.Fatal("expected an error for a singular system")
	}
}

func TestSolveLinearSystemShapeErrors(t *testing.T) {
	if _, err := SolveLinearSystem([][]bn256.Scalar{scalars(1)}, scalars(1, 2)); err == nil {
		t.Fatal("accepted mismatched row count")
	}
	if _, err := SolveLinearSystem([][]bn256.Scalar{scalars(1, 2)}, scalars(1)); err == nil {
		t.Fatal("accepted non-square matrix")
	}
}
