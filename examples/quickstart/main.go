// Quickstart: the smallest end-to-end use of the public API.
//
// One data owner outsources a file to a decentralized storage network with
// 3-of-10 erasure coding, engages the primary share holder in an on-chain
// audit contract, and lets the Scheduler drive three privacy-assured audit
// rounds off the block clock. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"math/big"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// A network of 12 storage providers, each funded to post deposits.
	net, err := dsnaudit.NewNetwork()
	if err != nil {
		log.Fatal(err)
	}
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18)) // 1 ETH
	for i := 0; i < 12; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("provider-%02d", i), funds); err != nil {
			log.Fatal(err)
		}
	}

	// The data owner: chunk size s=10 (10 blocks of 31 bytes per chunk).
	owner, err := dsnaudit.NewOwner(net, "alice", 10, funds)
	if err != nil {
		log.Fatal(err)
	}

	// Some archive data (the paper's target workload: write-once backups).
	data := make([]byte, 64*1024)
	if _, err := rand.Read(data); err != nil {
		log.Fatal(err)
	}

	// Outsource: encrypt client-side, erasure-code 3-of-10, place shares
	// via the DHT, and prepare authenticators over the sealed blob.
	sf, err := owner.Outsource("quickstart-archive", data, 3, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outsourced %d bytes as %d chunks (s=%d), %.2f%% authenticator overhead\n",
		len(data), sf.Encoded.NumChunks(), sf.Encoded.S, 100*sf.Encoded.StorageOverheadRatio())
	fmt.Printf("shares placed on: %s ... %s\n", sf.Holders[0].Name, sf.Holders[9].Name)

	// Engage the primary holder: deploy the Fig. 2 contract, exchange
	// acknowledgments, freeze deposits.
	terms := dsnaudit.DefaultTerms(3)
	terms.ChallengeSize = 50 // small file: challenge up to 50 chunks
	eng, err := owner.Engage(sf, sf.Holders[0], terms)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contract %s deployed; one-time on-chain key size: %d bytes\n",
		eng.Contract.Addr, eng.Contract.StoredKeyBytes())

	// Run the periodic audits off the block clock: the Scheduler mines,
	// wakes the engagement at each trigger height, and settles per block.
	s := sched.NewScheduler(net)
	if err := s.Add(eng); err != nil {
		log.Fatal(err)
	}
	if err := s.Run(ctx); err != nil {
		log.Fatal(err)
	}
	for _, rec := range eng.Contract.Records() {
		fmt.Printf("round %d: passed=%v proof=%dB gas=%d\n",
			rec.Round+1, rec.Passed, rec.ProofSize, rec.GasUsed)
	}
	res, _ := s.Result(eng.ID())
	fmt.Printf("final contract state: %v (%d/%d rounds passed)\n",
		eng.Contract.State(), res.Passed, res.Rounds)
	fmt.Printf("provider earned: %v wei in micro-payments\n",
		new(big.Int).Sub(net.Chain.Balance(sf.Holders[0].Address()), funds))

	// The owner can still retrieve, even if two providers vanish.
	sf.Holders[3].Store.Drop(sf.Manifest.ShareKeys[3])
	sf.Holders[5].Store.Drop(sf.Manifest.ShareKeys[5])
	back, err := owner.Retrieve(sf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieved %d bytes after losing 2 providers: intact=%v\n",
		len(back), string(back[:8]) == string(data[:8]) && len(back) == len(data))
}
