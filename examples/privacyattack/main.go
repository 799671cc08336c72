// Privacy attack: a working demonstration of the paper's Section V-C.
//
// A victim outsources a small file and answers audits. An off-chain
// adversary reads nothing but the public audit trail. The demo runs three
// scenarios:
//
//  1. Passive attack against the NON-private protocol: after ~d*s observed
//     rounds, Gaussian elimination recovers every data block, byte for byte.
//
//  2. Eclipse-accelerated attack: the adversary crafts the challenges
//     (fixed index/coefficient seeds, swept evaluation point) and recovers
//     the challenged chunks from only s*u responses via Lagrange
//     interpolation -- the paper's "much more efficiently".
//
//  3. The same passive attack against the privacy-assured protocol of
//     Section V-D: the masked responses y' = zeta*y + z are statistically
//     uniform and the "recovered" blocks match nothing.
//
//  4. End to end on chain: a Scheduler-driven engagement runs real audit
//     rounds through the contract, and the adversary harvests the public
//     blocks themselves -- everything it ever sees is 48-byte challenges
//     and 288-byte masked proofs.
//
//     go run ./examples/privacyattack
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"math/big"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/attack"
	"repro/internal/bn256"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	const s = 4 // small file: the paper's worst case for leakage

	sk, err := core.KeyGen(s, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	secret := []byte("TOP-SECRET medical archive content that must never leak on chain!")
	ef, err := core.EncodeFile(secret, s)
	if err != nil {
		log.Fatal(err)
	}
	auths, err := core.Setup(sk, ef)
	if err != nil {
		log.Fatal(err)
	}
	victim, err := core.NewProver(sk.Pub, ef, auths)
	if err != nil {
		log.Fatal(err)
	}
	d := ef.NumChunks()
	fmt.Printf("victim file: %d bytes, d=%d chunks x s=%d blocks\n\n", len(secret), d, s)

	// --- Scenario 1: passive attack on the non-private protocol ---
	fmt.Println("[1] passive adversary vs NON-private proofs (sigma, y, psi)")
	obs := attack.NewPassiveObserver(d, s)
	rounds := 0
	for obs.Equations() < obs.Unknowns()+2 {
		ch, err := core.NewChallenge(d, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		proof, err := victim.Prove(ch, nil)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.Ingest(&attack.Observation{Challenge: ch, Y: proof.Y}); err != nil {
			log.Fatal(err)
		}
		rounds++
	}
	blocks, err := obs.Recover()
	if err != nil {
		log.Fatal(err)
	}
	recovered := obs.RecoveredFile(blocks)
	recovered.Length = len(secret)
	plain := recovered.Decode()
	fmt.Printf("    observed %d audit rounds -> solved %d unknowns\n", rounds, obs.Unknowns())
	fmt.Printf("    recovered plaintext: %q\n", string(plain))
	fmt.Printf("    exact match: %v\n\n", string(plain) == string(secret))

	// --- Scenario 2: eclipse-accelerated attack ---
	fmt.Println("[2] eclipse adversary crafting challenges (Lagrange interpolation)")
	adv := attack.NewEclipseAdversary(d, s)
	const k = 2
	sets := k + 1
	crafted := adv.CraftedChallenges(k, sets)
	responses := make([][]bn256.Scalar, sets)
	for t := range crafted {
		responses[t] = make([]bn256.Scalar, len(crafted[t]))
		for v, ch := range crafted[t] {
			proof, err := victim.Prove(ch, nil)
			if err != nil {
				log.Fatal(err)
			}
			responses[t][v] = proof.Y
		}
	}
	rec, err := adv.RecoverFromBatches(crafted, responses)
	if err != nil {
		log.Fatal(err)
	}
	okAll := true
	for idx, coeffs := range rec {
		for j := range coeffs {
			if coeffs[j] != ef.Chunks[idx].Coeffs[j] {
				okAll = false
			}
		}
	}
	fmt.Printf("    %d crafted responses recovered %d chunks exactly: %v\n\n",
		sets*s, len(rec), okAll)

	// --- Scenario 3: the same passive attack vs the private protocol ---
	fmt.Println("[3] passive adversary vs PRIVATE proofs (sigma, y', psi, R)")
	obs2 := attack.NewPassiveObserver(d, s)
	var ys []bn256.Scalar
	for obs2.Equations() < obs2.Unknowns()+2 {
		ch, _ := core.NewChallenge(d, rand.Reader)
		proof, err := victim.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		_ = obs2.Ingest(&attack.Observation{Challenge: ch, Y: proof.YPrime})
		ys = append(ys, proof.YPrime)
	}
	blocks2, err := obs2.Recover()
	if err != nil {
		fmt.Printf("    recovery failed outright: %v\n", err)
	} else {
		matches := 0
		for i := 0; i < d; i++ {
			for j := 0; j < s; j++ {
				if blocks2[i*s+j] == ef.Chunks[i].Coeffs[j] {
					matches++
				}
			}
		}
		fmt.Printf("    solver produced garbage: %d/%d blocks match\n", matches, d*s)
	}
	fmt.Printf("    masked trail uniformity (chi^2/df, ~1.0 = uniform): %.2f\n",
		attack.PrivateTrailBias(ys, 8))
	fmt.Println("    the Sigma-protocol mask z kills the linear structure the attack needs")

	// --- Scenario 4: harvesting the real on-chain trail ---
	fmt.Println("\n[4] passive adversary reading the actual blocks of a live audit")
	onChainTrail(secret)
}

// onChainTrail runs a Scheduler-driven engagement over the secret and then
// plays the adversary: it reads nothing but the mined blocks and reports
// what the public audit trail actually exposes.
func onChainTrail(secret []byte) {
	net, err := dsnaudit.NewNetwork()
	if err != nil {
		log.Fatal(err)
	}
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18))
	for i := 0; i < 10; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("sp-%d", i), funds); err != nil {
			log.Fatal(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "victim", 4, funds)
	if err != nil {
		log.Fatal(err)
	}
	sf, err := owner.Outsource("medical-archive", secret, 3, 7)
	if err != nil {
		log.Fatal(err)
	}
	const rounds = 16
	terms := dsnaudit.DefaultTerms(rounds)
	terms.ChallengeSize = 4
	eng, err := owner.Engage(sf, sf.Holders[0], terms)
	if err != nil {
		log.Fatal(err)
	}
	s := sched.NewScheduler(net)
	if err := s.Add(eng); err != nil {
		log.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		log.Fatal(err)
	}

	// The adversary's entire view: the mined blocks.
	var challenges, proofs int
	var ys []bn256.Scalar
	for _, blk := range net.Chain.Blocks() {
		for _, tx := range blk.Txs {
			switch len(tx.Data) {
			case dsnaudit.ChallengeSize:
				challenges++
			case dsnaudit.PrivateProofSize:
				proofs++
				proof, err := core.UnmarshalPrivateProof(tx.Data)
				if err != nil {
					log.Fatal(err)
				}
				ys = append(ys, proof.YPrime)
			}
		}
	}
	res, _ := s.Result(eng.ID())
	fmt.Printf("    engagement served %d/%d rounds on chain (%d blocks)\n",
		res.Passed, rounds, net.Chain.Height())
	fmt.Printf("    adversary's haul: %d challenges (48 B) + %d proofs (288 B), nothing else\n",
		challenges, proofs)
	fmt.Printf("    harvested y' uniformity (chi^2/df, ~1.0 = uniform): %.2f\n",
		attack.PrivateTrailBias(ys, 8))
	fmt.Println("    the live trail leaks no linear equations: privacy holds end to end")
}
