package core

import (
	"fmt"

	"repro/internal/bn256"
	"repro/internal/parallel"
)

// SetupParallel computes authenticators with a bounded worker pool, matching
// the paper's evaluation setting ("all our evaluation is carried out with
// quad-core CPUs"). Chunks are independent and each authenticator lands in
// its index-keyed slot, so the speedup is near-linear in cores and the
// output is byte-identical to the serial computation at any worker count.
//
// workers <= 0 selects GOMAXPROCS. Setup is this function at the default
// worker count.
func SetupParallel(sk *PrivateKey, ef *EncodedFile, workers int) ([]*Authenticator, error) {
	if ef.S != sk.Pub.S {
		return nil, fmt.Errorf("%w: file encoded with s=%d but key has s=%d",
			ErrBadParameters, ef.S, sk.Pub.S)
	}
	auths := make([]*Authenticator, ef.NumChunks())
	sigmas := make([]*bn256.G1, len(auths))
	parallel.For(workers, len(auths), func(i int) {
		mAlpha := ef.Chunks[i].Eval(sk.Alpha)
		base := new(bn256.G1).ScalarBaseMult(mAlpha)
		base.Add(base, sk.Pub.blockTag(i))
		sigmas[i] = base.ScalarMult(base, sk.X)
		auths[i] = &Authenticator{Index: i, Sigma: sigmas[i]}
	})
	// The authenticators are marshalled for every holder and multiplied in
	// every audit round: affine once, here, with one shared inversion.
	bn256.NormalizeG1(sigmas)
	return auths, nil
}
