// Repair walkthrough: surviving a provider crash without losing data.
//
// A data owner shards a file 3-of-5 across five providers, puts every share
// under its own per-share audit contract, and hands the whole set to the
// repair manager. Mid-run one holder crashes. The next audit round convicts
// it (missed proof deadline, deposit slashed), and the manager closes the
// loop on its own: it fetches the three surviving shares, verifies each
// against the manifest, erasure-decodes the lost one back, picks a
// reputation-ranked replacement from the DHT, ships it the share, and
// registers a fresh generation-1 contract with the still-running scheduler.
// The file ends the run fully retrievable from its current holders. Run
// with:
//
//	go run ./examples/repair
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/big"

	"repro/dsnaudit"
	"repro/dsnaudit/repair"
	"repro/dsnaudit/sched"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/core"
)

// crashable wraps an in-process provider behind the same transport seam a
// remote.Client occupies: flip dead and every call fails exactly like a
// provider whose process is gone, while its on-chain identity (deposit,
// reputation) stays behind to be slashed.
type crashable struct {
	node *dsnaudit.ProviderNode
	dead bool
}

func (c *crashable) err() error {
	return fmt.Errorf("%w: %s crashed", dsnaudit.ErrProviderUnreachable, c.node.Name)
}

func (c *crashable) AcceptAuditData(ctx context.Context, addr chain.Address, pk *core.PublicKey, ef *core.EncodedFile, auths []*core.Authenticator, sampleSize int) error {
	if c.dead {
		return c.err()
	}
	return c.node.AcceptAuditData(ctx, addr, pk, ef, auths, sampleSize)
}

func (c *crashable) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	if c.dead {
		return nil, c.err()
	}
	return c.node.Respond(ctx, addr, ch)
}

func (c *crashable) FetchShare(ctx context.Context, key string) ([]byte, error) {
	if c.dead {
		return nil, c.err()
	}
	return c.node.FetchShare(ctx, key)
}

func (c *crashable) PutShare(ctx context.Context, key string, data []byte) error {
	if c.dead {
		return c.err()
	}
	return c.node.PutShare(ctx, key, data)
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// A seeded beacon makes the whole run reproducible: same challenges,
	// same conviction height, same repair.
	b, err := beacon.NewTrusted([]byte("repair-walkthrough"))
	if err != nil {
		log.Fatal(err)
	}
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b))
	if err != nil {
		log.Fatal(err)
	}
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18)) // 1 ETH
	for i := 0; i < 8; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("provider-%02d", i), funds); err != nil {
			log.Fatal(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "alice", 8, funds)
	if err != nil {
		log.Fatal(err)
	}

	// OutsourceSharded builds per-share audit state: each of the 5 shares
	// gets its own authenticators, so each holder is audited on exactly the
	// bytes it stores — the property repair needs to re-audit a
	// reconstructed share on a new holder.
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	sf, err := owner.OutsourceSharded("family-photos", data, 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outsourced %d bytes as 3-of-5 shares across:", len(data))
	for _, h := range sf.Holders {
		fmt.Printf(" %s", h.Name)
	}
	fmt.Println()

	// Every provider is reached through its crashable transport — the seam
	// where a remote.Client would sit in a real deployment.
	peers := make(map[string]*crashable, 8)
	peer := func(p *dsnaudit.ProviderNode) *crashable {
		if peers[p.Name] == nil {
			peers[p.Name] = &crashable{node: p}
		}
		return peers[p.Name]
	}

	// One audit contract per share, all driven by one scheduler.
	terms := dsnaudit.DefaultTerms(3)
	terms.ChallengeSize = 8
	set, err := owner.EngageShares(ctx, sf, terms,
		func(p *dsnaudit.ProviderNode) dsnaudit.ProviderTransport { return peer(p) })
	if err != nil {
		log.Fatal(err)
	}
	s := sched.NewScheduler(net)

	// The repair manager listens to the scheduler's terminal outcomes; any
	// tracked engagement that ends in conviction enters the repair pipeline.
	mgr := repair.NewManager(owner, s,
		repair.WithPeers(func(p *dsnaudit.ProviderNode) dsnaudit.RepairPeer { return peer(p) }))
	if err := mgr.Track(sf, set, terms); err != nil {
		log.Fatal(err)
	}
	for _, eng := range set.Engagements {
		if err := s.Add(eng); err != nil {
			log.Fatal(err)
		}
	}

	// Crash one holder a few blocks in: its next challenge goes unanswered,
	// the proof deadline lapses, and the contract aborts with the deposit
	// slashed — the conviction that triggers repair.
	victim := sf.Holders[1]
	s.OnBlock(func(h uint64) {
		if p := peer(victim); h >= 4 && !p.dead {
			p.dead = true
			fmt.Printf("block %d: %s crashes, taking share 1 with it\n", h, victim.Name)
		}
	})

	if err := s.Run(ctx); err != nil {
		log.Fatal(err)
	}

	// What the repair pipeline did, from its own records.
	for _, rec := range mgr.Repairs() {
		if rec.Err != nil {
			log.Fatalf("repair failed: %v", rec.Err)
		}
		fmt.Printf("block %d: repaired %s share %d — %d survivors fetched, "+
			"%d bytes moved, %s -> %s (generation %d)\n",
			rec.Height, rec.File, rec.Index, rec.Survivors, rec.Bytes,
			rec.From, rec.To, rec.Generation)
	}
	st := mgr.Stats()
	fmt.Printf("durability: %d lost / %d repaired / %d unrecovered\n",
		st.SharesLost, st.SharesRepaired, st.SharesUnrecovered)
	fmt.Printf("reputation: %s trust %.2f (slashed), survivors earned repair credit\n",
		victim.Name, net.Reputation.Trust(victim.Name))

	// The proof of the pudding: the file reassembles from whoever holds the
	// shares now.
	back, err := owner.Retrieve(sf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieved %d bytes, intact: %v\n", len(back), bytes.Equal(back, data))
}
