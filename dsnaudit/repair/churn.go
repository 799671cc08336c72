package repair

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/storage"
)

// ChurnConfig parameterizes a seeded churn scenario: a provider population
// that keeps joining, crashing and cheating while a set of sharded files
// stays under continuous audit, with every conviction repaired on the fly.
// The zero value is not runnable; start from DefaultChurnConfig.
type ChurnConfig struct {
	Seed     int64 // drives the beacon, the injection RNG and the file contents
	Files    int   // sharded files under audit
	FileSize int   // plaintext bytes per file
	K, M     int   // erasure parameters (K data + M parity shares per file)

	Providers int    // initial provider population
	Horizon   uint64 // block height at which injections and renewals stop; the run then drains
	Rounds    int    // audit rounds per engagement generation

	KillEvery    uint64 // crash one provider every N blocks (0 = never)
	JoinEvery    uint64 // join one fresh provider every N blocks (0 = never)
	CorruptEvery uint64 // corrupt one audited share every N blocks (0 = never)

	ChallengeSize int // audit challenge size (small values keep runs fast)
	ChunkSize     int // audit chunk size s (blocks per chunk)
	Workers       int // scheduler parallelism (0 = GOMAXPROCS)

	Log func(format string, args ...any) // optional progress output
}

// DefaultChurnConfig is a run in the shape the paper's Section VI sketches,
// scaled to simulation time: hundreds of providers, a multi-thousand-block
// horizon, steady kill/join/corrupt pressure.
func DefaultChurnConfig(seed int64) ChurnConfig {
	return ChurnConfig{
		Seed:          seed,
		Files:         8,
		FileSize:      2048,
		K:             3,
		M:             2,
		Providers:     200,
		Horizon:       2000,
		Rounds:        3,
		KillEvery:     40,
		JoinEvery:     60,
		CorruptEvery:  90,
		ChallengeSize: 4,
		ChunkSize:     8,
	}
}

// ChurnReport is the durability accounting of one churn run.
type ChurnReport struct {
	Seed        int64
	FinalHeight uint64

	ProvidersJoined int
	ProvidersKilled int
	SharesCheated   int

	Engagements  int // engagements driven over the whole run, all generations
	RoundsPassed int
	RoundsFailed int

	Stats   Stats
	Repairs []Record

	// Repair latency in blocks, from the loss injection to the completed
	// re-engagement (detection dominates: a loss surfaces only when the
	// next audit round convicts).
	RepairsTimed     int
	LatencyBlocksSum uint64
	LatencyBlocksMax uint64

	FilesIntact int // files whose plaintext still round-trips at the end
	Files       int
}

// AvgRepairLatency returns the mean repair latency in blocks.
func (r *ChurnReport) AvgRepairLatency() float64 {
	if r.RepairsTimed == 0 {
		return 0
	}
	return float64(r.LatencyBlocksSum) / float64(r.RepairsTimed)
}

// Summary renders the report's headline numbers.
func (r *ChurnReport) Summary() string {
	return fmt.Sprintf(
		"seed=%d blocks=%d providers(+%d/-%d) cheats=%d engagements=%d rounds(pass=%d fail=%d) "+
			"lost=%d repaired=%d unrecovered=%d renewals=%d bytes_moved=%d "+
			"latency(avg=%.1f max=%d blocks) intact=%d/%d",
		r.Seed, r.FinalHeight, r.ProvidersJoined, r.ProvidersKilled, r.SharesCheated,
		r.Engagements, r.RoundsPassed, r.RoundsFailed,
		r.Stats.SharesLost, r.Stats.SharesRepaired, r.Stats.SharesUnrecovered,
		r.Stats.Renewals, r.Stats.BytesMoved,
		r.AvgRepairLatency(), r.LatencyBlocksMax, r.FilesIntact, r.Files)
}

// mortalPeer wraps an in-process provider with a kill switch: once dead,
// every transport call fails like an unreachable remote, while the
// provider's on-chain identity (deposits, reputation) stays convictable.
// The dead flag is atomic because proofs run on scheduler worker
// goroutines while kills land on the Run goroutine.
type mortalPeer struct {
	node *dsnaudit.ProviderNode
	dead atomic.Bool
}

func (p *mortalPeer) unreachable() error {
	return fmt.Errorf("%w: provider %s is down", dsnaudit.ErrProviderUnreachable, p.node.Name)
}

func (p *mortalPeer) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	if p.dead.Load() {
		return nil, p.unreachable()
	}
	return p.node.Respond(ctx, addr, ch)
}

func (p *mortalPeer) AcceptAuditData(ctx context.Context, addr chain.Address, pk *core.PublicKey, ef *core.EncodedFile, auths []*core.Authenticator, sampleSize int) error {
	if p.dead.Load() {
		return p.unreachable()
	}
	return p.node.AcceptAuditData(ctx, addr, pk, ef, auths, sampleSize)
}

func (p *mortalPeer) FetchShare(ctx context.Context, key string) ([]byte, error) {
	if p.dead.Load() {
		return nil, p.unreachable()
	}
	return p.node.FetchShare(ctx, key)
}

func (p *mortalPeer) PutShare(ctx context.Context, key string, data []byte) error {
	if p.dead.Load() {
		return p.unreachable()
	}
	return p.node.PutShare(ctx, key, data)
}

var _ dsnaudit.RepairPeer = (*mortalPeer)(nil)

// churnFile is one file's ground truth for the engine: the plaintext for
// the final durability check plus the loss-injection bookkeeping.
type churnFile struct {
	sf   *dsnaudit.StoredFile
	data []byte
	// lossAt queues the block height each share slot was compromised at;
	// successful repairs consume it FIFO to compute latency.
	lossAt [][]uint64
	// cheatedGen marks a slot whose holder silently corrupted at the given
	// generation; it counts as compromised until a repair bumps the
	// generation.
	cheatedGen []int
}

// churnEngine injects seeded churn through the scheduler's block hook. All
// injection state is touched only on the Run goroutine (block hooks and
// outcome hooks are synchronous there), so the engine needs no lock of its
// own; the peers map alone is guarded because transports are looked up
// during setup too.
type churnEngine struct {
	cfg   ChurnConfig
	net   *dsnaudit.Network
	owner *dsnaudit.Owner
	mgr   *Manager
	rng   *rand.Rand

	peersMu sync.Mutex
	peers   map[string]*mortalPeer

	alive  []string // live provider names, join order (deterministic picks)
	files  []*churnFile
	nextID int

	// Next due heights for each injection kind. The scheduler's block hook
	// only observes tick heights (proof-sealing blocks are consumed
	// inline), so cadence is "fire at the first observed height >= due",
	// never a modulo on the height.
	nextKill, nextJoin, nextCheat uint64

	killed, joined, cheats int
}

func (e *churnEngine) peer(p *dsnaudit.ProviderNode) dsnaudit.RepairPeer {
	e.peersMu.Lock()
	defer e.peersMu.Unlock()
	mp, ok := e.peers[p.Name]
	if !ok {
		mp = &mortalPeer{node: p}
		e.peers[p.Name] = mp
	}
	return mp
}

const churnFunds = 1_000_000_000

// addProvider joins one fresh provider to the network.
func (e *churnEngine) addProvider() error {
	name := fmt.Sprintf("p-%04d", e.nextID)
	e.nextID++
	if _, err := e.net.AddProvider(name, big.NewInt(churnFunds)); err != nil {
		return err
	}
	e.alive = append(e.alive, name)
	return nil
}

// compromised counts a file's currently untrustworthy holders: dead ones
// and silent corrupters not yet replaced. The kill/cheat injectors keep
// this at or below M per file, the recoverability invariant — with it, K
// verified survivors always exist and zero shares end unrecovered, which
// is exactly what the churn acceptance asserts.
func (e *churnEngine) compromised(f *churnFile, extraDead string) int {
	n := 0
	for i, h := range f.sf.Holders {
		bad := h.Name == extraDead
		if mp, ok := e.peers[h.Name]; ok && mp.dead.Load() {
			bad = true
		}
		if !bad && f.cheatedGen[i] >= 0 {
			if eng, ok := e.mgr.Current(f.sf.Manifest.Name, i); ok && eng.Generation == f.cheatedGen[i] {
				bad = true
			} else {
				f.cheatedGen[i] = -1 // repaired since; forget the cheat
			}
		}
		if bad {
			n++
		}
	}
	return n
}

// kill crashes one live provider at height h, if one can die without
// pushing any file past M compromised shares.
func (e *churnEngine) kill(h uint64) {
	if len(e.alive) == 0 {
		return
	}
	start := e.rng.Intn(len(e.alive))
	for off := 0; off < len(e.alive); off++ {
		name := e.alive[(start+off)%len(e.alive)]
		safe := true
		for _, f := range e.files {
			if e.compromised(f, name) > f.sf.Manifest.M {
				safe = false
				break
			}
		}
		if !safe {
			continue
		}
		idx := (start + off) % len(e.alive)
		e.alive = append(e.alive[:idx], e.alive[idx+1:]...)
		node, _ := e.net.Provider(name)
		if mp, ok := e.peer(node).(*mortalPeer); ok {
			mp.dead.Store(true)
		}
		e.net.Ring.Leave(node.DHTNode.ID)
		e.killed++
		for _, f := range e.files {
			for i, holder := range f.sf.Holders {
				if holder.Name == name {
					f.lossAt[i] = append(f.lossAt[i], h)
				}
			}
		}
		e.logf("block %d: provider %s crashed", h, name)
		return
	}
}

// cheat makes one holder silently corrupt at height h: its blob-store copy
// of the share is dropped and its audit-plane replica is corrupted in
// every chunk, so the very next challenge convicts it. Skipped when no
// slot can be compromised without breaking the M invariant.
func (e *churnEngine) cheat(h uint64) {
	if len(e.files) == 0 {
		return
	}
	fStart := e.rng.Intn(len(e.files))
	for fOff := 0; fOff < len(e.files); fOff++ {
		f := e.files[(fStart+fOff)%len(e.files)]
		if e.compromised(f, "") >= f.sf.Manifest.M {
			continue
		}
		n := len(f.sf.Holders)
		iStart := e.rng.Intn(n)
		for iOff := 0; iOff < n; iOff++ {
			i := (iStart + iOff) % n
			holder := f.sf.Holders[i]
			if mp, ok := e.peers[holder.Name]; ok && mp.dead.Load() {
				continue
			}
			if f.cheatedGen[i] >= 0 {
				continue
			}
			eng, ok := e.mgr.Current(f.sf.Manifest.Name, i)
			if !ok || eng.Provider != holder {
				continue
			}
			prover, ok := holder.Prover(eng.ID())
			if !ok {
				continue
			}
			holder.Store.Drop(f.sf.Manifest.ShareKeys[i])
			for c := range prover.File.Chunks {
				prover.File.Corrupt(c, 0)
			}
			f.cheatedGen[i] = eng.Generation
			f.lossAt[i] = append(f.lossAt[i], h)
			e.cheats++
			e.logf("block %d: provider %s corrupted %s share %d", h, holder.Name, f.sf.Manifest.Name, i)
			return
		}
	}
}

// inject is the block hook: seeded churn pinned to block heights.
func (e *churnEngine) inject(h uint64) {
	if h >= e.cfg.Horizon {
		return
	}
	if e.cfg.JoinEvery > 0 && h >= e.nextJoin {
		e.nextJoin = h + e.cfg.JoinEvery
		if err := e.addProvider(); err == nil {
			e.joined++
		}
	}
	if e.cfg.KillEvery > 0 && h >= e.nextKill {
		e.nextKill = h + e.cfg.KillEvery
		e.kill(h)
	}
	if e.cfg.CorruptEvery > 0 && h >= e.nextCheat {
		e.nextCheat = h + e.cfg.CorruptEvery
		e.cheat(h)
	}
}

func (e *churnEngine) logf(format string, args ...any) {
	if e.cfg.Log != nil {
		e.cfg.Log(format, args...)
	}
}

// RunChurn executes one seeded churn scenario end to end and reports the
// durability outcome. Identical seeds produce identical reports.
func RunChurn(ctx context.Context, cfg ChurnConfig) (*ChurnReport, error) {
	if cfg.Files <= 0 || cfg.K <= 0 || cfg.M <= 0 || cfg.Providers < cfg.K+cfg.M+1 || cfg.Horizon == 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("repair: churn config is not runnable: %+v", cfg)
	}
	if cfg.ChallengeSize <= 0 {
		cfg.ChallengeSize = 4
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 8
	}
	if cfg.FileSize <= 0 {
		cfg.FileSize = 2048
	}

	b, err := beacon.NewTrusted([]byte(fmt.Sprintf("churn-beacon-%d", cfg.Seed)))
	if err != nil {
		return nil, err
	}
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b))
	if err != nil {
		return nil, err
	}
	owner, err := dsnaudit.NewOwner(net, "owner", cfg.ChunkSize, big.NewInt(0).Mul(big.NewInt(churnFunds), big.NewInt(1000)))
	if err != nil {
		return nil, err
	}

	e := &churnEngine{
		cfg:       cfg,
		net:       net,
		owner:     owner,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		peers:     make(map[string]*mortalPeer),
		nextKill:  cfg.KillEvery,
		nextJoin:  cfg.JoinEvery,
		nextCheat: cfg.CorruptEvery,
	}
	for i := 0; i < cfg.Providers; i++ {
		if err := e.addProvider(); err != nil {
			return nil, err
		}
	}

	driver := sched.NewScheduler(net, sched.WithParallelism(cfg.Workers))
	e.mgr = NewManager(owner, driver, WithPeers(e.peer), WithHorizon(cfg.Horizon))

	terms := dsnaudit.EngagementTerms{
		Rounds:          cfg.Rounds,
		ChallengeSize:   cfg.ChallengeSize,
		RoundInterval:   2,
		ProofDeadline:   2,
		PaymentPerRound: big.NewInt(1000),
		ProviderDeposit: big.NewInt(50_000),
	}
	for i := 0; i < cfg.Files; i++ {
		data := make([]byte, cfg.FileSize)
		e.rng.Read(data)
		name := fmt.Sprintf("file-%03d", i)
		sf, err := owner.OutsourceSharded(name, data, cfg.K, cfg.M)
		if err != nil {
			return nil, err
		}
		set, err := owner.EngageShares(ctx, sf, terms, func(p *dsnaudit.ProviderNode) dsnaudit.ProviderTransport { return e.peer(p) })
		if err != nil {
			return nil, err
		}
		if err := e.mgr.Track(sf, set, terms); err != nil {
			return nil, err
		}
		cf := &churnFile{
			sf:         sf,
			data:       data,
			lossAt:     make([][]uint64, len(sf.Shares)),
			cheatedGen: make([]int, len(sf.Shares)),
		}
		for j := range cf.cheatedGen {
			cf.cheatedGen[j] = -1
		}
		e.files = append(e.files, cf)
		if err := driver.AddSet(set); err != nil {
			return nil, err
		}
	}

	driver.OnBlock(e.inject)
	if cfg.Log != nil {
		driver.OnBlock(func(h uint64) {
			if h%200 == 0 {
				st := e.mgr.Stats()
				cfg.Log("block %d: lost=%d repaired=%d renewals=%d providers=%d",
					h, st.SharesLost, st.SharesRepaired, st.Renewals, len(e.alive))
			}
		})
	}

	if err := driver.Run(ctx); err != nil {
		return nil, err
	}

	rep := &ChurnReport{
		Seed:            cfg.Seed,
		FinalHeight:     net.Chain.Height(),
		ProvidersJoined: e.joined,
		ProvidersKilled: e.killed,
		SharesCheated:   e.cheats,
		Stats:           e.mgr.Stats(),
		Repairs:         e.mgr.Repairs(),
		Files:           cfg.Files,
	}
	for _, res := range driver.Results() {
		rep.Engagements++
		rep.RoundsPassed += res.Passed
		rep.RoundsFailed += res.Failed
	}
	// Pair each successful repair with the injection that caused the loss,
	// FIFO per share slot, to get detect+repair latency in blocks.
	byFile := make(map[string]*churnFile, len(e.files))
	for _, f := range e.files {
		byFile[f.sf.Manifest.Name] = f
	}
	for _, r := range rep.Repairs {
		if r.Err != nil {
			continue
		}
		f := byFile[r.File]
		if f == nil || len(f.lossAt[r.Index]) == 0 {
			continue
		}
		loss := f.lossAt[r.Index][0]
		f.lossAt[r.Index] = f.lossAt[r.Index][1:]
		if r.Height < loss {
			continue
		}
		lat := r.Height - loss
		rep.RepairsTimed++
		rep.LatencyBlocksSum += lat
		if lat > rep.LatencyBlocksMax {
			rep.LatencyBlocksMax = lat
		}
	}
	// Durability ground truth: every file must still decrypt bit-exactly,
	// fetching through the same transports repair used — a crashed holder
	// contributes nothing here even though its in-process store survives.
	for _, f := range e.files {
		man := f.sf.Manifest
		shares := make([][]byte, len(man.ShareKeys))
		for i, key := range man.ShareKeys {
			data, err := e.peer(f.sf.Holders[i]).FetchShare(ctx, key)
			if err != nil || !man.VerifyShare(i, data) {
				continue
			}
			shares[i] = data
		}
		got, err := storage.Reassemble(man, owner.EncKey, shares)
		if err == nil && string(got) == string(f.data) {
			rep.FilesIntact++
		}
	}
	return rep, nil
}
