package core_test

import (
	"crypto/rand"
	"fmt"

	"repro/internal/core"
)

// Example walks the five protocol algorithms end to end on a small file:
// the minimal use of the audit scheme without any blockchain machinery.
func Example() {
	// KeyGen: chunk size s = 8 blocks.
	sk, err := core.KeyGen(8, rand.Reader)
	if err != nil {
		panic(err)
	}

	// Encode + Setup: the data owner's one-time preprocessing.
	data := make([]byte, 4096)
	if _, err := rand.Read(data); err != nil {
		panic(err)
	}
	ef, err := core.EncodeFile(data, 8)
	if err != nil {
		panic(err)
	}
	auths, err := core.Setup(sk, ef)
	if err != nil {
		panic(err)
	}

	// The storage provider validates what it received, then serves audits.
	if err := core.VerifyAuthenticators(sk.Pub, ef, auths, nil); err != nil {
		panic(err)
	}
	prover, err := core.NewProver(sk.Pub, ef, auths)
	if err != nil {
		panic(err)
	}

	// One audit round: challenge -> privacy-assured proof -> verification.
	ch, err := core.NewChallenge(5, rand.Reader)
	if err != nil {
		panic(err)
	}
	proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		panic(err)
	}
	wire, err := proof.Marshal()
	if err != nil {
		panic(err)
	}
	received, err := core.UnmarshalPrivateProof(wire)
	if err != nil {
		panic(err)
	}
	fmt.Println("proof bytes:", len(wire))
	fmt.Println("verified:", core.VerifyPrivate(sk.Pub, ef.NumChunks(), ch, received))
	// Output:
	// proof bytes: 288
	// verified: true
}
