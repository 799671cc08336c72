// Package dsntest builds the seeded worlds the tests of dsnaudit and its
// subpackages share: a network whose trusted beacon is drawn from a seed,
// named funded providers, owners whose keys are drawn from the same seed,
// and in-process providers behind kill switches.
//
// It imports only dsnaudit and internal packages, so the internal tests of
// dsnaudit/sched, dsnaudit/remote and dsnaudit/repair can import it. Only
// _test.go files, cmd/experiments and other test-support packages (such as
// dsnaudit/repair/repairtest) may import it; scripts/exportlint enforces
// that for every package whose name ends in "test".
package dsntest

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/dsnaudit"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/storage"
)

// Eth returns n ether in wei.
func Eth(n int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
}

// SmallTerms keeps tests fast: the default terms with a 4-chunk challenge.
func SmallTerms(rounds int) dsnaudit.EngagementTerms {
	terms := dsnaudit.DefaultTerms(rounds)
	terms.ChallengeSize = 4
	return terms
}

// Names returns n names, format applied to first, first+1, ...:
// Names("sp-%c", 'a', 3) is sp-a, sp-b, sp-c.
func Names(format string, first, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(format, first+i)
	}
	return names
}

// Pattern returns n bytes of file data, byte i being i·step mod 256.
func Pattern(n, step int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * step)
	}
	return data
}

// DetReader is a deterministic entropy stream: block i is
// SHA-256(seed ‖ i). Two readers with the same seed yield identical bytes,
// which is what pins byte-identical keys and proofs across runs and
// transports. Its Read never fails.
type DetReader struct {
	mu   sync.Mutex
	seed string
	ctr  uint64
	buf  []byte
}

// NewDetReader returns the stream for seed.
func NewDetReader(seed string) *DetReader { return &DetReader{seed: seed} }

func (r *DetReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.buf) < len(p) {
		var blk [8]byte
		binary.BigEndian.PutUint64(blk[:], r.ctr)
		r.ctr++
		h := sha256.Sum256(append([]byte(r.seed), blk[:]...))
		r.buf = append(r.buf, h[:]...)
	}
	copy(p, r.buf[:len(p)])
	r.buf = r.buf[len(p):]
	return len(p), nil
}

// World is one seeded simulated deployment: a network and the mortal
// transports its tests put in front of providers.
type World struct {
	Net  *dsnaudit.Network
	seed string

	mu    sync.Mutex
	peers map[string]*MortalPeer
}

// NewWorld builds a network whose trusted beacon is seeded by seed, with one
// provider per name, in order, each funded with funds.
func NewWorld(seed string, funds *big.Int, providers ...string) (*World, error) {
	b, err := beacon.NewTrusted([]byte(seed))
	if err != nil {
		return nil, err
	}
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b))
	if err != nil {
		return nil, err
	}
	for _, name := range providers {
		if _, err := net.AddProvider(name, funds); err != nil {
			return nil, err
		}
	}
	return &World{Net: net, seed: seed, peers: make(map[string]*MortalPeer)}, nil
}

// Owner funds a new owner. Its audit key (chunk size s) and then its
// encryption key are drawn from one stream seeded by the world's seed and
// the owner's name, so a world's keys, and the chain bytes and gas that
// depend on them, are functions of its seed.
func (w *World) Owner(name string, s int, funds *big.Int) (*dsnaudit.Owner, error) {
	r := NewDetReader(w.seed + "/owner/" + name)
	sk, err := core.KeyGen(s, r)
	if err != nil {
		return nil, err
	}
	encKey := make([]byte, storage.KeySize)
	r.Read(encKey) // a DetReader's Read never fails
	return dsnaudit.NewOwnerWithKeys(w.Net, name, sk, encKey, funds)
}

// MortalPeer is an in-process provider behind a kill switch: once killed,
// every transport call fails like an unreachable remote, while the
// provider's on-chain identity (deposits, reputation) stays convictable.
// The switch is atomic because proofs run on scheduler workers while kills
// land on the Run goroutine.
type MortalPeer struct {
	node *dsnaudit.ProviderNode
	dead atomic.Bool
}

func (p *MortalPeer) unreachable() error {
	return fmt.Errorf("%w: provider %s is down", dsnaudit.ErrProviderUnreachable, p.node.Name)
}

func (p *MortalPeer) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	if p.dead.Load() {
		return nil, p.unreachable()
	}
	return p.node.Respond(ctx, addr, ch)
}

func (p *MortalPeer) AcceptAuditData(ctx context.Context, addr chain.Address, pk *core.PublicKey, ef *core.EncodedFile, auths []*core.Authenticator, sampleSize int) error {
	if p.dead.Load() {
		return p.unreachable()
	}
	return p.node.AcceptAuditData(ctx, addr, pk, ef, auths, sampleSize)
}

func (p *MortalPeer) FetchShare(ctx context.Context, key string) ([]byte, error) {
	if p.dead.Load() {
		return nil, p.unreachable()
	}
	return p.node.FetchShare(ctx, key)
}

func (p *MortalPeer) PutShare(ctx context.Context, key string, data []byte) error {
	if p.dead.Load() {
		return p.unreachable()
	}
	return p.node.PutShare(ctx, key, data)
}

// mortal returns p's one MortalPeer, made on first use.
func (w *World) mortal(p *dsnaudit.ProviderNode) *MortalPeer {
	w.mu.Lock()
	defer w.mu.Unlock()
	mp, ok := w.peers[p.Name]
	if !ok {
		mp = &MortalPeer{node: p}
		w.peers[p.Name] = mp
	}
	return mp
}

// Peer is the world's transport to p for repair: its MortalPeer.
func (w *World) Peer(p *dsnaudit.ProviderNode) dsnaudit.RepairPeer { return w.mortal(p) }

// Transport is Peer in the form Owner.EngageShares takes.
func (w *World) Transport(p *dsnaudit.ProviderNode) dsnaudit.ProviderTransport { return w.mortal(p) }

// Kill crashes p: its MortalPeer stops answering and it leaves the DHT ring.
func (w *World) Kill(p *dsnaudit.ProviderNode) {
	w.mortal(p).dead.Store(true)
	w.Net.Ring.Leave(p.DHTNode.ID)
}

// Corrupt turns eng's provider into a cheater: every chunk of its audit
// state for eng is corrupted, so each proof it produces fails verification.
func Corrupt(eng *dsnaudit.Engagement) error {
	prover, ok := eng.Provider.Prover(eng.ID())
	if !ok {
		return fmt.Errorf("dsntest: %s holds no audit state for %s", eng.Provider.Name, eng.ID())
	}
	for c := range prover.File.Chunks {
		prover.File.Corrupt(c, 0)
	}
	return nil
}

// Retrieve reassembles sf's plaintext fetching only through the world's
// mortal peers, so a killed holder contributes nothing even though its
// in-process store survives. A share that fails to arrive or fails its
// manifest hash is left out.
func (w *World) Retrieve(ctx context.Context, sf *dsnaudit.StoredFile, encKey []byte) ([]byte, error) {
	man := sf.Manifest
	shares := make([][]byte, len(man.ShareKeys))
	for i, key := range man.ShareKeys {
		data, err := w.mortal(sf.Holders[i]).FetchShare(ctx, key)
		if err != nil || !man.VerifyShare(i, data) {
			continue
		}
		shares[i] = data
	}
	return storage.Reassemble(man, encKey, shares)
}
