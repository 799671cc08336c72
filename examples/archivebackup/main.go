// Archive backup: the paper's motivating scenario (Section I-A) -- a user
// backs up a photo collection off-site to untrusted decentralized storage.
//
// This example exercises the storage plane under failure: shares spread
// over a DHT of providers, providers crashing and corrupting data, the
// erasure code absorbing losses up to its budget, and the on-chain audit
// catching a provider that silently dropped its share -- before the owner
// ever tries to retrieve (the paper: "the user may never find out whether
// partial data is lost until the time of data retrieval").
//
// The valuable summer album is audited on EVERY share holder via
// Owner.EngageAll (one contract per holder), so corruption of any single
// share is caught; the other albums audit their primary holder only. One
// Scheduler drives all contracts concurrently on the shared chain.
//
//	go run ./examples/archivebackup
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"math/big"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/contract"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18))

	net, err := dsnaudit.NewNetwork()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("sp-%02d", i), funds); err != nil {
			log.Fatal(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "photographer", 20, funds)
	if err != nil {
		log.Fatal(err)
	}

	// A season of photos: three albums, write-once.
	albums := map[string][]byte{
		"album-spring": make([]byte, 96*1024),
		"album-summer": make([]byte, 128*1024),
		"album-autumn": make([]byte, 64*1024),
	}
	stored := map[string]*dsnaudit.StoredFile{}
	for name, data := range albums {
		if _, err := rand.Read(data); err != nil {
			log.Fatal(err)
		}
		sf, err := owner.Outsource(name, data, 3, 7)
		if err != nil {
			log.Fatal(err)
		}
		stored[name] = sf
		fmt.Printf("%s: %d KiB -> 10 shares across %d distinct providers\n",
			name, len(data)/1024, countDistinct(sf))
	}

	// Engage audit contracts: summer on every holder, the rest on their
	// primary holder. One scheduler drives everything.
	terms := dsnaudit.DefaultTerms(3)
	terms.ChallengeSize = 60
	s := sched.NewScheduler(net)

	engagements := map[string]*dsnaudit.Engagement{}
	for _, name := range []string{"album-spring", "album-autumn"} {
		eng, err := owner.Engage(stored[name], stored[name].Holders[0], terms)
		if err != nil {
			log.Fatal(err)
		}
		engagements[name] = eng
		if err := s.Add(eng); err != nil {
			log.Fatal(err)
		}
	}
	summerSet, err := owner.EngageAll(stored["album-summer"], terms)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.AddSet(summerSet); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontracts live: 2 primary-holder audits + %d summer holders (EngageAll)\n",
		len(summerSet.Engagements))

	// Disaster strikes: the primary holder of album-summer silently drops
	// its audit data to reclaim space; two other providers holding
	// album-spring shares crash outright.
	summer := stored["album-summer"]
	summerPrimary := summerSet.Engagements[0]
	if prover, ok := summer.Holders[0].Prover(summerPrimary.Contract.Addr); ok {
		for i := 0; i < prover.File.NumChunks(); i++ {
			prover.File.Corrupt(i, 0)
		}
	}
	spring := stored["album-spring"]
	spring.Holders[2].Store.Drop(spring.Manifest.ShareKeys[2])
	spring.Holders[6].Store.Drop(spring.Manifest.ShareKeys[6])
	fmt.Println("-- failures injected: summer audit data dropped; 2 spring share holders crashed --")

	// The scheduler's periodic audits run, all contracts concurrently.
	// Summer's primary gets caught and slashed long before retrieval time.
	if err := s.Run(ctx); err != nil {
		log.Fatal(err)
	}
	for name, eng := range engagements {
		res, _ := s.Result(eng.ID())
		fmt.Printf("%s: %d/%d rounds passed, contract %v\n",
			name, res.Passed, terms.Rounds, res.State)
	}
	sum := summerSet.Summary()
	fmt.Printf("album-summer (all %d holders): %d expired, %d aborted, %d rounds passed, %d failed\n",
		sum.Engagements, sum.Expired, sum.Aborted, sum.RoundsPassed, sum.RoundsFailed)
	for _, e := range summerSet.Engagements {
		if e.Contract.State() == contract.StateAborted {
			fmt.Printf("  -> provider %s slashed; owner compensated from its deposit\n",
				e.Provider.Name)
		}
	}

	// Retrieval: all three albums come back intact -- spring despite two
	// crashed holders (erasure budget), summer despite the cheater (its
	// nine honest holders keep passing their own contracts).
	fmt.Println()
	for name, sf := range stored {
		got, err := owner.Retrieve(sf)
		if err != nil {
			log.Fatalf("%s: retrieval failed: %v", name, err)
		}
		fmt.Printf("%s: retrieved intact=%v\n", name, bytes.Equal(got, albums[name]))
	}
}

func countDistinct(sf *dsnaudit.StoredFile) int {
	seen := map[string]bool{}
	for _, h := range sf.Holders {
		seen[h.Name] = true
	}
	return len(seen)
}
