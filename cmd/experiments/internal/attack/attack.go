// Package attack implements the adversaries of the paper's Section V-C,
// which motivate the privacy-assured protocol:
//
//   - PassiveObserver: an off-chain adversary that only reads public audit
//     trails of the NON-private protocol (challenge seeds plus the response
//     scalar y = Pk(r)) and recovers data blocks by accumulating linear
//     equations over the unknown block values and solving them with
//     Gaussian elimination.
//   - EclipseAdversary: the accelerated variant (citing [31], [32]): after
//     eclipsing the victim, the adversary CHOOSES the challenges -- fixing
//     the index/coefficient seeds and sweeping the evaluation point -- so
//     each batch of s observations Lagrange-interpolates one combined
//     polynomial, and u coefficient sets then separate the individual
//     blocks.
//
// Both succeed against Prove and fail against ProvePrivate, which is the
// paper's central security claim; the package tests and
// `cmd/experiments -exp attack` demonstrate both directions.
package attack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bn256"
	"repro/internal/core"
	"repro/internal/poly"
)

// Observation is one round of the non-private protocol as seen on chain:
// the public challenge and the response scalar y (the Pk(r) leak).
type Observation struct {
	Challenge *core.Challenge
	Y         bn256.Scalar
}

// PassiveObserver accumulates on-chain observations against one file
// (identified by its public chunk count d and chunk size s) and solves for
// the raw blocks once enough independent equations exist.
type PassiveObserver struct {
	d, s int
	rows [][]bn256.Scalar
	ys   []bn256.Scalar
}

// NewPassiveObserver targets a file with d chunks of s blocks. Both values
// are public: d follows from the contract metadata, s from the key.
func NewPassiveObserver(d, s int) *PassiveObserver {
	return &PassiveObserver{d: d, s: s}
}

// Unknowns returns the number of unknown block values (d*s).
func (o *PassiveObserver) Unknowns() int { return o.d * o.s }

// Equations returns how many observations have been ingested.
func (o *PassiveObserver) Equations() int { return len(o.rows) }

// Ingest adds one observed audit round. The observer expands the challenge
// exactly as the verifier would: y = sum_l c_l * M_{i_l}(r) is one linear
// equation in the d*s block unknowns.
func (o *PassiveObserver) Ingest(obs *Observation) error {
	indices, coeffs, r, err := obs.Challenge.Expand(o.d)
	if err != nil {
		return err
	}
	row := make([]bn256.Scalar, o.d*o.s)
	rPow := make([]bn256.Scalar, o.s)
	rPow[0].SetUint64(1)
	for j := 1; j < o.s; j++ {
		rPow[j].Mul(&rPow[j-1], &r)
	}
	var term bn256.Scalar
	for l, idx := range indices {
		for j := 0; j < o.s; j++ {
			col := idx*o.s + j
			row[col].Add(&row[col], term.Mul(&coeffs[l], &rPow[j]))
		}
	}
	o.rows = append(o.rows, row)
	o.ys = append(o.ys, obs.Y)
	return nil
}

// errInsufficient indicates more observations are needed.
var errInsufficient = errors.New("attack: not enough independent observations yet")

// Recover attempts to solve for all d*s blocks. It needs at least d*s
// observations; with honestly random challenges the system is full rank
// with overwhelming probability once that many are available.
func (o *PassiveObserver) Recover() ([]bn256.Scalar, error) {
	n := o.Unknowns()
	if len(o.rows) < n {
		return nil, fmt.Errorf("%w: have %d equations, need %d", errInsufficient, len(o.rows), n)
	}
	// Use the first n equations; on singularity, slide the window.
	for start := 0; start+n <= len(o.rows); start++ {
		sol, err := SolveLinearSystem(o.rows[start:start+n], o.ys[start:start+n])
		if err == nil {
			return sol, nil
		}
	}
	return nil, fmt.Errorf("%w: observed system is singular", errInsufficient)
}

// RecoveredFile reshapes a recovered block vector into chunk polynomials
// for comparison with the real file.
func (o *PassiveObserver) RecoveredFile(blocks []bn256.Scalar) *core.EncodedFile {
	return core.NewEncodedFile(o.s, o.d*o.s*core.BlockSize, append([]bn256.Scalar(nil), blocks[:o.d*o.s]...))
}

// EclipseAdversary mounts the accelerated attack: it crafts the challenges
// the eclipsed victim answers.
type EclipseAdversary struct {
	d, s int
}

// NewEclipseAdversary targets a file with d chunks of s blocks.
func NewEclipseAdversary(d, s int) *EclipseAdversary {
	return &EclipseAdversary{d: d, s: s}
}

// CraftedChallenges returns s challenges per coefficient-set, for `sets`
// distinct coefficient seeds: within a set, C1/C2 are fixed (same chunks,
// same coefficients) while the evaluation seed varies. k is the challenge
// width presented to the victim.
func (a *EclipseAdversary) CraftedChallenges(k, sets int) [][]*core.Challenge {
	out := make([][]*core.Challenge, sets)
	for t := 0; t < sets; t++ {
		batch := make([]*core.Challenge, a.s)
		for v := 0; v < a.s; v++ {
			ch := &core.Challenge{K: k}
			ch.C1[0] = 0x11    // fixed index seed: every set hits the same chunks
			ch.C2[0] = byte(t) // coefficient seed varies per set
			ch.C2[1] = byte(t >> 8)
			ch.R[0] = byte(v) // evaluation point sweeps within a set
			ch.R[1] = byte(t)
			ch.R[2] = 0x5A
			batch[v] = ch
		}
		out[t] = batch
	}
	return out
}

// RecoverFromBatches recovers the individual blocks of the challenged
// chunks. batches[t][v] is the victim's y response to CraftedChallenges
// output [t][v]. Steps, per the paper:
//
//  1. Within set t, the s responses are evaluations of one polynomial
//     Pk_t(x) of degree s-1: Lagrange-interpolate it.
//  2. Coefficient j of Pk_t is sum_l c_{t,l} * m_{i_l, j}: for each j,
//     the `sets` interpolated coefficients form a linear system in the
//     m_{i_l, j}, solved by Gaussian elimination.
//
// It returns a map from chunk index to its recovered coefficient vector.
func (a *EclipseAdversary) RecoverFromBatches(challenges [][]*core.Challenge, responses [][]bn256.Scalar) (map[int][]bn256.Scalar, error) {
	sets := len(challenges)
	if sets == 0 || len(responses) != sets {
		return nil, errors.New("attack: empty or mismatched batches")
	}

	// All sets share the same index seed, so the challenged chunk set is
	// identical; expand once.
	indices, _, _, err := challenges[0][0].Expand(a.d)
	if err != nil {
		return nil, err
	}
	u := len(indices)
	if sets < u {
		return nil, fmt.Errorf("attack: %d coefficient sets cannot separate %d chunks", sets, u)
	}

	// Step 1: interpolate each set's combined polynomial.
	combined := make([]*poly.Poly, sets)
	coeffSets := make([][]bn256.Scalar, sets)
	for t := 0; t < sets; t++ {
		if len(challenges[t]) != a.s || len(responses[t]) != a.s {
			return nil, fmt.Errorf("attack: set %d has %d points, need %d", t, len(challenges[t]), a.s)
		}
		xs := make([]bn256.Scalar, a.s)
		for v := 0; v < a.s; v++ {
			idxs, cs, r, err := challenges[t][v].Expand(a.d)
			if err != nil {
				return nil, err
			}
			if v == 0 {
				coeffSets[t] = cs
			}
			for l := range idxs {
				if idxs[l] != indices[l] {
					return nil, errors.New("attack: crafted challenges disagree on indices")
				}
			}
			xs[v] = r
		}
		p, err := interpolate(xs, responses[t])
		if err != nil {
			return nil, err
		}
		combined[t] = p
	}

	// Step 2: for each coefficient position j, solve for the per-chunk
	// values from the first u sets.
	recovered := make(map[int][]bn256.Scalar, u)
	for _, idx := range indices {
		recovered[idx] = make([]bn256.Scalar, a.s)
	}
	matrix := make([][]bn256.Scalar, u)
	for t := 0; t < u; t++ {
		matrix[t] = coeffSets[t][:u]
	}
	rhs := make([]bn256.Scalar, u)
	for j := 0; j < a.s; j++ {
		for t := 0; t < u; t++ {
			rhs[t] = bn256.Scalar{}
			if j < len(combined[t].Coeffs) {
				rhs[t] = combined[t].Coeffs[j]
			}
		}
		sol, err := SolveLinearSystem(matrix, rhs)
		if err != nil {
			return nil, fmt.Errorf("attack: coefficient system singular at j=%d: %v", j, err)
		}
		for l, idx := range indices {
			recovered[idx][j] = sol[l]
		}
	}
	return recovered, nil
}

// ObservationsNeeded returns the paper's s*u bound: recovering u chunks of
// s blocks requires s*u (challenge, proof) pairs.
func ObservationsNeeded(s, u int) int { return s * u }

// PrivateTrailBias measures the empirical distinguishability of private
// audit trails from uniform randomness: it buckets the top bits of observed
// y' values and returns the normalized chi-square statistic. For the
// Sigma-masked protocol this stays near 1 (uniform); a leaky protocol
// correlated with file contents would drift. Used by tests and
// `-exp attack` as the "nothing to interpolate" evidence.
//
// A value's bucket is read from its top 64 bits t as
// floor(t * buckets / (t_max + 1)), t_max those of n - 1: the equal-width
// split of [0, n) to within 2^192 at each boundary.
func PrivateTrailBias(ys []bn256.Scalar, buckets int) float64 {
	if len(ys) == 0 || buckets < 2 {
		return 0
	}
	top := func(v *bn256.Scalar) uint64 {
		b := v.Bytes()
		return binary.BigEndian.Uint64(b[:8])
	}
	var nm1 bn256.Scalar
	nm1.Neg(nm1.SetUint64(1))
	span := top(&nm1) + 1 // t < span for every value: the quotient fits
	counts := make([]int, buckets)
	for i := range ys {
		hi, lo := bits.Mul64(top(&ys[i]), uint64(buckets))
		b, _ := bits.Div64(hi, lo, span)
		counts[b]++
	}
	expected := float64(len(ys)) / float64(buckets)
	chi2 := 0.0
	for _, c := range counts {
		diff := float64(c) - expected
		chi2 += diff * diff / expected
	}
	// Normalize by degrees of freedom so ~1 means "consistent with uniform".
	return chi2 / float64(buckets-1)
}

// SolveLinearSystem solves A*x = b over Zn by Gaussian elimination, where A
// is square (len(b) rows). It returns the unique solution, or an error if A
// is singular. The inputs are not modified.
//
// The leakage attack of the paper's Section V-C reduces recovering data
// blocks from observed audit trails to exactly this computation.
func SolveLinearSystem(a [][]bn256.Scalar, b []bn256.Scalar) ([]bn256.Scalar, error) {
	k := len(b)
	if len(a) != k {
		return nil, fmt.Errorf("attack: system has %d rows but %d right-hand values", len(a), k)
	}
	// The augmented matrix, k rows of k+1 in one slab.
	slab := make([]bn256.Scalar, k*(k+1))
	m := make([][]bn256.Scalar, k)
	for i := range m {
		if len(a[i]) != k {
			return nil, fmt.Errorf("attack: row %d has %d columns, want %d", i, len(a[i]), k)
		}
		m[i] = slab[i*(k+1) : (i+1)*(k+1)]
		copy(m[i], a[i])
		m[i][k] = b[i]
	}

	var inv, t bn256.Scalar
	for col := 0; col < k; col++ {
		// Find a pivot.
		pivot := -1
		for row := col; row < k; row++ {
			if !m[row][col].IsZero() {
				pivot = row
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("attack: singular system (no pivot in column %d)", col)
		}
		m[col], m[pivot] = m[pivot], m[col]

		// Normalize the pivot row.
		inv.Inv(&m[col][col])
		for j := col; j <= k; j++ {
			m[col][j].Mul(&m[col][j], &inv)
		}

		// Eliminate the column from all other rows.
		for row := 0; row < k; row++ {
			if row == col || m[row][col].IsZero() {
				continue
			}
			factor := m[row][col]
			for j := col; j <= k; j++ {
				m[row][j].Sub(&m[row][j], t.Mul(&factor, &m[col][j]))
			}
		}
	}

	x := make([]bn256.Scalar, k)
	for i := range x {
		x[i] = m[i][k]
	}
	return x, nil
}
