// Remote audit: storage providers served over TCP instead of in-process.
//
// Two provider nodes are exposed by dsnaudit/remote.Server on loopback
// listeners (real TCP, real frames — the same wire path `dsn-audit serve`
// uses across OS processes), the owner ships each its audit state through a
// remote.Client, and the Scheduler drives three rounds against the live
// servers. A third engagement then shows the liveness-fault path an
// in-process call can never exhibit: its server is stopped mid-engagement,
// the next challenge gets no proof inside the response window, and the
// provider is slashed through the ordinary missed-round path. Run with:
//
//	go run ./examples/remoteaudit
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"math/big"
	"net"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/remote"
	"repro/dsnaudit/sched"
)

// serveProvider exposes a fresh standalone provider node over a loopback
// TCP listener and returns the dial address plus a stop function that
// drains the server (the `dsn-audit serve` flow, minus the OS process
// boundary).
func serveProvider(name string) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := remote.NewServer(dsnaudit.NewProviderNode(name),
		remote.WithServerLog(func(string, ...any) {}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	return ln.Addr().String(), func() { cancel(); <-done }, nil
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	net, err := dsnaudit.NewNetwork()
	if err != nil {
		log.Fatal(err)
	}
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18))
	for i := 0; i < 12; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("sp-%02d", i), funds); err != nil {
			log.Fatal(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "alice", 8, funds)
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, 16*1024)
	if _, err := rand.Read(data); err != nil {
		log.Fatal(err)
	}
	sf, err := owner.Outsource("remote-archive", data, 3, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outsourced %d bytes as %d chunks\n", len(data), sf.Encoded.NumChunks())

	// Two providers served over TCP; the owner's side only ever sees the
	// dial address and the ProviderTransport interface.
	terms := dsnaudit.DefaultTerms(3)
	terms.ChallengeSize = 30
	s := sched.NewScheduler(net)
	engs := make([]*dsnaudit.Engagement, 0, 2)
	for i := 0; i < 2; i++ {
		addr, stop, err := serveProvider(fmt.Sprintf("remote-%d", i))
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		client := remote.NewClient(addr, remote.WithCallTimeout(30*time.Second))
		defer client.Close()
		eng, err := owner.EngageWith(ctx, sf, sf.Holders[i], client, terms)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("contract %s live; provider %s served from %s\n",
			eng.Contract.Addr, sf.Holders[i].Name, addr)
		if err := s.Add(eng); err != nil {
			log.Fatal(err)
		}
		engs = append(engs, eng)
	}
	if err := s.Run(ctx); err != nil {
		log.Fatal(err)
	}
	for _, eng := range engs {
		res, _ := s.Result(eng.ID())
		fmt.Printf("engagement %s: %d/%d rounds passed, state %v\n",
			eng.Contract.Addr, res.Passed, res.Rounds, res.State)
	}

	// Liveness fault: the server disappears between rounds. The client's
	// re-dials are refused, Respond fails with ErrProviderUnreachable, the
	// response window lapses, and the provider is slashed exactly like a
	// silent in-process responder.
	fmt.Println("\n-- provider crash mid-engagement --")
	addr, stop, err := serveProvider("doomed")
	if err != nil {
		log.Fatal(err)
	}
	client := remote.NewClient(addr,
		remote.WithCallTimeout(5*time.Second),
		remote.WithRetries(1),
		remote.WithRetryBackoff(100*time.Millisecond))
	defer client.Close()
	eng, err := owner.EngageWith(ctx, sf, sf.Holders[2], client, terms)
	if err != nil {
		log.Fatal(err)
	}
	if ok, err := eng.RunRound(ctx); err != nil || !ok {
		log.Fatalf("round 1 against the live server: ok=%v err=%v", ok, err)
	}
	fmt.Println("round 1: passed=true (server alive)")
	stop() // the provider process dies
	ok, err := eng.RunRound(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round 2: passed=%v, contract %v (deposit slashed via the missed-round path)\n",
		ok, eng.Contract.State())
}
