package core

import (
	"fmt"

	"repro/internal/bn256"
	"repro/internal/parallel"
)

// SetupParallel computes authenticators with a bounded worker pool, matching
// the paper's evaluation setting ("all our evaluation is carried out with
// quad-core CPUs"). The workers hash the tags H(name||i) and evaluate
// M_i(alpha); then bn256.ScaledBaseSums gives each a contiguous slice of
// chunks and forms its sigma_i = x*(M_i(alpha)*g1 + H(name||i)) in lockstep:
// the comb by M_i(alpha) and the walk by the shared x are steps of one
// batch-affine addition in every chunk of the slice, all of them taking
// their slopes from a single field inversion. A slice too short to pay an
// inversion per step (below about 29 chunks for the walk, 21 for the comb: a
// fleet file's 17 split two ways) takes the per-point path instead. The
// authenticators come out affine, for they are marshalled for every holder
// and multiplied in every audit round, and each is the same group element,
// so the same bytes, at any worker count.
//
// workers <= 0 selects GOMAXPROCS. Setup is this function at the default
// worker count.
func SetupParallel(sk *PrivateKey, ef *EncodedFile, workers int) ([]*Authenticator, error) {
	if ef.S != sk.Pub.S {
		return nil, fmt.Errorf("%w: file encoded with s=%d but key has s=%d",
			errBadParameters, ef.S, sk.Pub.S)
	}
	n := ef.NumChunks()
	ms := make([]bn256.Scalar, n)
	tags := make([]*bn256.G1, n)
	parallel.For(workers, n, func(i int) {
		ms[i] = ef.Chunks[i].Eval(&sk.Alpha)
		tags[i] = sk.Pub.blockTag(i)
	})
	sigmas := bn256.ScaledBaseSums(&sk.X, ms, tags, workers)
	auths := make([]*Authenticator, n)
	for i, sigma := range sigmas {
		auths[i] = &Authenticator{Index: i, Sigma: sigma}
	}
	return auths, nil
}
