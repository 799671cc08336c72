package dsnaudit_test

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/core"
)

// Example shows the complete owner workflow: network setup, outsourcing
// with erasure coding, contract engagement and a full audit run driven by
// the scheduler.
func Example() {
	net, err := dsnaudit.NewNetwork()
	if err != nil {
		panic(err)
	}
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18))
	for i := 0; i < 10; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("sp-%d", i), funds); err != nil {
			panic(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "alice", 8, funds)
	if err != nil {
		panic(err)
	}

	data := make([]byte, 8192)
	if _, err := rand.Read(data); err != nil {
		panic(err)
	}
	sf, err := owner.Outsource("archive", data, 3, 7)
	if err != nil {
		panic(err)
	}

	terms := dsnaudit.DefaultTerms(2)
	terms.ChallengeSize = 10
	eng, err := owner.EngageWith(context.Background(), sf, sf.Holders[0], sf.Holders[0], terms)
	if err != nil {
		panic(err)
	}
	s := sched.NewScheduler(net)
	if err := s.Add(eng); err != nil {
		panic(err)
	}
	if err := s.Run(context.Background()); err != nil {
		panic(err)
	}
	res, _ := s.Results()[eng.ID()]
	fmt.Println("rounds passed:", res.Passed)
	fmt.Println("proof size:", core.PrivateProofSize)
	// Output:
	// rounds passed: 2
	// proof size: 288
}
