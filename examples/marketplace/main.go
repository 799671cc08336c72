// Marketplace: a multi-owner decentralized storage marketplace
// (Section VII-D's scalability setting) on one simulated chain.
//
// Several data owners outsource archives to a pool of providers; every
// owner runs an independent audit contract against its primary holder, and
// a single Scheduler drives all contracts concurrently off the block clock,
// fanning proof generation out to a worker pool. One provider cheats and is
// slashed mid-flight. The run then reports the system-wide numbers the
// paper cares about: per-audit gas and USD, chain growth, and the
// batch-verification speedup a provider-side aggregator gets.
//
//	go run ./examples/marketplace
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"math/big"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/cost"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18))

	net, err := dsnaudit.NewNetwork()
	if err != nil {
		log.Fatal(err)
	}
	const numProviders = 20
	for i := 0; i < numProviders; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("sp-%02d", i), funds); err != nil {
			log.Fatal(err)
		}
	}

	const numOwners = 6
	terms := dsnaudit.DefaultTerms(3)
	terms.ChallengeSize = 40

	type tenant struct {
		owner *dsnaudit.Owner
		sf    *dsnaudit.StoredFile
		eng   *dsnaudit.Engagement
	}
	tenants := make([]*tenant, numOwners)
	s := sched.NewScheduler(net)
	for i := range tenants {
		owner, err := dsnaudit.NewOwner(net, fmt.Sprintf("owner-%d", i), 8, funds)
		if err != nil {
			log.Fatal(err)
		}
		data := make([]byte, 16*1024+i*4096)
		rand.Read(data)
		sf, err := owner.Outsource(fmt.Sprintf("archive-%d", i), data, 3, 7)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := owner.Engage(sf, sf.Holders[0], terms)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Add(eng); err != nil {
			log.Fatal(err)
		}
		tenants[i] = &tenant{owner: owner, sf: sf, eng: eng}
	}
	fmt.Printf("marketplace: %d owners, %d providers, %d live contracts on one scheduler\n\n",
		numOwners, numProviders, numOwners)

	// Owner 2's provider turns malicious before the first trigger fires.
	cheater := tenants[2]
	if prover, ok := cheater.sf.Holders[0].Prover(cheater.eng.Contract.Addr); ok {
		for c := 0; c < prover.File.NumChunks(); c++ {
			prover.File.Corrupt(c, 0)
		}
	}

	// One Run drives every contract to completion, concurrently.
	start := time.Now()
	if err := s.Run(ctx); err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	var totalGas uint64
	for i, tn := range tenants {
		res, _ := s.Result(tn.eng.ID())
		for _, rec := range tn.eng.Contract.Records() {
			totalGas += rec.GasUsed
		}
		fmt.Printf("owner-%d vs %-6s: %d/%d rounds, %v\n",
			i, tn.eng.Provider.Name, res.Passed, terms.Rounds, res.State)
	}

	slashed := 0
	for _, tn := range tenants {
		if tn.eng.Contract.State() == contract.StateAborted {
			slashed++
		}
	}

	// System-wide economics.
	price := cost.PaperPrice()
	audits := 0
	for _, tn := range tenants {
		audits += len(tn.eng.Contract.Records())
	}
	fmt.Printf("\n%d audits on chain in %v wall clock, %d cheater slashed\n",
		audits, wall.Round(time.Millisecond), slashed)
	fmt.Printf("total audit gas: %d (%.4f USD at 5 Gwei / 143 USD per ETH)\n",
		totalGas, price.GasToUSD(totalGas))
	fmt.Printf("avg per audit:   %d gas (%.4f USD)\n",
		totalGas/uint64(audits), price.GasToUSD(totalGas/uint64(audits)))
	fmt.Printf("chain: %d blocks, %.1f KiB total\n",
		net.Chain.Height(), float64(net.Chain.TotalBytes())/1024)

	// Provider-side batch verification (Section VII-D): fold every
	// surviving contract's latest proof into one pairing product.
	var items []*core.BatchItem
	for _, tn := range tenants {
		if tn.eng.Contract.State() != contract.StateExpired {
			continue
		}
		prover, _ := tn.sf.Holders[0].Prover(tn.eng.Contract.Addr)
		ch, err := core.NewChallenge(terms.ChallengeSize, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		proof, err := prover.ProvePrivate(ch, nil, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		items = append(items, &core.BatchItem{
			Pub:       tn.owner.AuditSK.Pub,
			NumChunks: tn.sf.Encoded.NumChunks(),
			Challenge: ch,
			Proof:     proof,
		})
	}
	start = time.Now()
	okBatch := core.BatchVerify(items)
	batchTime := time.Since(start)

	start = time.Now()
	okSeq := true
	for _, it := range items {
		if !core.VerifyPrivate(it.Pub, it.NumChunks, it.Challenge, it.Proof) {
			okSeq = false
		}
	}
	seqTime := time.Since(start)
	fmt.Printf("\nbatch audit of %d contracts: batch=%v in %v, sequential=%v in %v (%.2fx)\n",
		len(items), okBatch, batchTime.Round(time.Millisecond),
		okSeq, seqTime.Round(time.Millisecond),
		float64(seqTime)/float64(batchTime))
}
