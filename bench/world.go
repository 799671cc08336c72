package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/remote"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/obs"
)

// The fixed load shape every real-path workload shares (see README.md).
const (
	cores        = 2 // GOMAXPROCS, prove workers and settlement parallelism
	serverNodes  = 2 // provider nodes, each behind its own remote.Server
	ringHolders  = 4 // on-chain provider identities on the DHT ring
	schedShards  = 4
	journalShard = 4
	flushEvery   = 16 // group-commit barrier cadence, ticks
	ckptEvery    = 16 // checkpoint cadence, ticks
	erasureK     = 2
	erasureM     = 1
)

// world is the real path's fixed part: one chain, one owner, the on-chain
// provider identities, and the provider nodes that hold audit state, each
// served over loopback TCP and reached through one multiplexed client.
type world struct {
	net     *dsnaudit.Network
	owner   *dsnaudit.Owner
	holders []*dsnaudit.ProviderNode
	nodes   []*dsnaudit.ProviderNode
	clients []*remote.Client

	cancel context.CancelFunc
	served sync.WaitGroup
}

// newWorld builds the fixed part. s is the owner's sectors-per-chunk; reg,
// when non-nil, receives the remote layer's dsn_remote_* series.
func newWorld(seed int64, s int, reg *obs.Registry) (*world, error) {
	b, err := beacon.NewTrusted([]byte(fmt.Sprintf("bench-%d", seed)))
	if err != nil {
		return nil, err
	}
	// One block must hold a whole tick's proofs and the set-up bursts, as in
	// sched.RunSoak; gas is still metered per transaction.
	cfg := chain.DefaultConfig()
	cfg.BlockGasLimit = 1 << 62
	n, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b), dsnaudit.WithChainConfig(cfg))
	if err != nil {
		return nil, err
	}
	funds := new(big.Int).Lsh(big.NewInt(1), 80)
	w := &world{net: n}
	for i := 0; i < ringHolders; i++ {
		h, err := n.AddProvider(fmt.Sprintf("sp-%d", i), funds)
		if err != nil {
			return nil, err
		}
		w.holders = append(w.holders, h)
	}
	if w.owner, err = dsnaudit.NewOwner(n, "owner", s, funds); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	for i := 0; i < serverNodes; i++ {
		node := dsnaudit.NewProviderNode(fmt.Sprintf("node-%d", i))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, err
		}
		srv := remote.NewServer(node,
			remote.WithServerLog(func(string, ...any) {}),
			remote.WithServerMetrics(reg))
		w.served.Add(1)
		go func() {
			defer w.served.Done()
			_ = srv.Serve(ctx, ln) // returns ctx.Err() after the drain in close
		}()
		w.nodes = append(w.nodes, node)
		w.clients = append(w.clients, remote.NewClient(ln.Addr().String(), remote.WithClientMetrics(reg)))
	}
	return w, nil
}

// rebuildWorld runs build n times, closing all but the last world, and
// returns that one with each build's duration in seconds at the reference
// speed: several samples of a set-up part from one run.
func rebuildWorld(share float64, n int, build func() (*world, error)) (*world, []float64, error) {
	var w *world
	secs, err := timedAtRef(share, n, func(int) (err error) {
		if w != nil {
			w.close()
		}
		w, err = build()
		return err
	})
	return w, secs, err
}

// close drains the servers and waits for them to exit.
func (w *world) close() {
	for _, c := range w.clients {
		_ = c.Close()
	}
	w.cancel()
	w.served.Wait()
}

// funds sums free and locked balances over the owner and every provider;
// audits move money between them but never create or destroy it.
func (w *world) funds() *big.Int {
	parties := []chain.Address{w.owner.Address()}
	for _, h := range w.holders {
		parties = append(parties, h.Address())
	}
	total := new(big.Int)
	for _, a := range parties {
		total.Add(total, w.net.Chain.Balance(a))
		total.Add(total, w.net.Chain.LockedBalance(a))
	}
	return total
}

// mineAll seals every pending transaction so chain totals are exact.
func (w *world) mineAll() {
	for w.net.Chain.PendingCount() > 0 {
		w.net.Chain.MineBlock()
	}
}

// fileBytes derives file i's content from the seed.
func fileBytes(seed int64, i, size int) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed<<20 + int64(i))).Read(data)
	return data
}

// engageTimes are the layer boundaries of one pass through the owner pipeline.
type engageTimes struct {
	start, outsourced, acceptStart, acceptEnd, end time.Time
}

// timedTransport notes when the audit-data handoff crosses the wire.
type timedTransport struct {
	dsnaudit.ProviderTransport
	t *engageTimes
}

func (a timedTransport) AcceptAuditData(ctx context.Context, addr chain.Address, pk *core.PublicKey, ef *core.EncodedFile, auths []*core.Authenticator, sample int) error {
	a.t.acceptStart = time.Now()
	err := a.ProviderTransport.AcceptAuditData(ctx, addr, pk, ef, auths, sample)
	a.t.acceptEnd = time.Now()
	return err
}

// engage runs the public owner pipeline for file i — Outsource, then
// EngageWith over TCP against the file's first DHT holder — and returns the
// frozen engagement. The audit state is shipped to node i mod serverNodes.
func (w *world) engage(ctx context.Context, seed int64, i, size int, terms dsnaudit.EngagementTerms) (*dsnaudit.Engagement, engageTimes, error) {
	var t engageTimes
	name := fmt.Sprintf("file-%04d", i)
	data := fileBytes(seed, i, size)
	t.start = time.Now()
	sf, err := w.owner.Outsource(name, data, erasureK, erasureM)
	if err != nil {
		return nil, t, fmt.Errorf("outsource %s: %w", name, err)
	}
	t.outsourced = time.Now()
	client := w.clients[i%serverNodes]
	eng, err := w.owner.EngageWith(ctx, sf, sf.Holders[0], timedTransport{client, &t}, terms)
	if err != nil {
		return nil, t, fmt.Errorf("engage %s: %w", name, err)
	}
	t.end = time.Now()
	eng.Responder = client
	return eng, t, nil
}

// nodeFor is the provider node holding engagement i's audit state.
func (w *world) nodeFor(i int) *dsnaudit.ProviderNode { return w.nodes[i%serverNodes] }
