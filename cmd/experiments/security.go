package main

import (
	"crypto/rand"
	"fmt"

	"repro/cmd/experiments/internal/attack"
	"repro/cmd/experiments/internal/paper"
	"repro/internal/beacon"
	"repro/internal/bn256"
	"repro/internal/core"
	"repro/internal/cost"
)

func runBeacon(ctx *expCtx) error {
	price := cost.PaperPrice()
	model := beacon.DefaultCostModel()
	// Randao-style beacons serve every contract on the chain at once, so
	// the per-consumer price is the round cost amortized over consumers
	// plus the consumer's own 48-byte absorb transaction.
	const consumers = 100
	ctx.printf("randomness cost per audit round (commit-reveal, %d consuming contracts):\n", consumers)
	ctx.printf("%-14s %-12s %-14s %-16s\n", "participants", "round gas", "round USD", "per consumer")
	for _, n := range []int{1, 3, 5, 10} {
		gas := model.RoundGas(n)
		perConsumer := price.GasToUSD(gas)/consumers + price.GasToUSD(paper.ChallengeGasOverhead())
		ctx.printf("%-14d %-12d $%-13.4f $%-15.4f\n", n, gas, price.GasToUSD(gas), perConsumer)
	}
	ctx.printf("paper: $0.01 - $0.05 per round per consumer\n\n")

	trials := 400
	if ctx.quick {
		trials = 100
	}
	// The last-revealer bias of plain commit-reveal ([36]'s criticism).
	adv, err := beacon.LastRevealerAdvantage(3, trials, func(b []byte) bool {
		return b[0]%2 == 0
	})
	if err != nil {
		return err
	}
	ctx.printf("last-revealer attack on a p=0.5 predicate over %d trials:\n", trials)
	ctx.printf("honest beacon success: ~0.50; withholding adversary: %.3f (theory: 0.75)\n", adv)
	return nil
}

func runAttack(ctx *expCtx) error {
	const s = 4
	sk, err := core.KeyGen(s, rand.Reader)
	if err != nil {
		return err
	}
	secret := make([]byte, 360) // 3 chunks
	rand.Read(secret)
	ef, err := core.EncodeFile(secret, s)
	if err != nil {
		return err
	}
	auths, err := core.Setup(sk, ef)
	if err != nil {
		return err
	}
	victim, err := core.NewProver(sk.Pub, ef, auths)
	if err != nil {
		return err
	}
	d := ef.NumChunks()

	ctx.printf("victim: %d bytes, d=%d chunks x s=%d blocks (%d unknowns)\n",
		len(secret), d, s, d*s)

	// Passive attack vs the non-private protocol.
	obs := attack.NewPassiveObserver(d, s)
	for obs.Equations() < obs.Unknowns()+2 {
		ch, err := core.NewChallenge(d, rand.Reader)
		if err != nil {
			return err
		}
		proof, err := victim.Prove(ch, nil)
		if err != nil {
			return err
		}
		if err := obs.Ingest(&attack.Observation{Challenge: ch, Y: proof.Y}); err != nil {
			return err
		}
	}
	blocks, err := obs.Recover()
	if err != nil {
		return err
	}
	match := countMatches(blocks, ef, d, s)
	ctx.printf("non-private trail, %d observations: recovered %d/%d blocks exactly\n",
		obs.Equations(), match, d*s)

	// Same attack vs the private protocol.
	obs2 := attack.NewPassiveObserver(d, s)
	var ys []bn256.Scalar
	for obs2.Equations() < obs2.Unknowns()+2 {
		ch, err := core.NewChallenge(d, rand.Reader)
		if err != nil {
			return err
		}
		proof, err := victim.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			return err
		}
		if err := obs2.Ingest(&attack.Observation{Challenge: ch, Y: proof.YPrime}); err != nil {
			return err
		}
		ys = append(ys, proof.YPrime)
	}
	match2 := 0
	if blocks2, err := obs2.Recover(); err == nil {
		match2 = countMatches(blocks2, ef, d, s)
	}
	ctx.printf("private trail,     %d observations: recovered %d/%d blocks (bias %.2f, ~1 = uniform)\n",
		obs2.Equations(), match2, d*s, attack.PrivateTrailBias(ys, 8))
	ctx.printf("observations needed per paper (s*u): %d\n", attack.ObservationsNeeded(s, d))
	return nil
}

func countMatches(blocks []bn256.Scalar, ef *core.EncodedFile, d, s int) int {
	n := 0
	for i := 0; i < d; i++ {
		for j := 0; j < s; j++ {
			if blocks[i*s+j] == ef.Chunks[i].Coeffs[j] {
				n++
			}
		}
	}
	return n
}

func runConfidence(ctx *expCtx) error {
	// Section VI-A: k=300 challenged chunks give 95% detection at 1%
	// corruption. Model, then an empirical audit run.
	ctx.printf("%-14s %-8s\n", "confidence", "k")
	for _, conf := range []float64{0.91, 0.93, 0.95, 0.97, 0.99} {
		ctx.printf("%-14s %-8d\n", fmt.Sprintf("%.0f%%", conf*100), paper.ChunksForConfidence(conf, 0.01))
	}

	trials := 30
	if ctx.quick {
		trials = 10
	}
	const s = 2
	prover, err := buildProver(s, 100) // 100 chunks
	if err != nil {
		return err
	}
	d := prover.File.NumChunks()
	corrupt := d / 10 // 10% corruption so small k shows the effect
	for i := 0; i < corrupt; i++ {
		prover.File.Corrupt(i, 0)
	}
	const k = 10
	detected := 0
	for i := 0; i < trials; i++ {
		ch, err := core.NewChallenge(k, rand.Reader)
		if err != nil {
			return err
		}
		proof, err := prover.Prove(ch, nil)
		if err != nil {
			return err
		}
		if !core.Verify(prover.Pub, d, ch, proof) {
			detected++
		}
	}
	model := paper.DetectionProbability(d, corrupt, k)
	ctx.printf("\nempirical: d=%d, %d%% corrupted, k=%d: detected %d/%d (%.2f); model %.2f\n",
		d, 100*corrupt/d, k, detected, trials, float64(detected)/float64(trials), model)
	return nil
}
