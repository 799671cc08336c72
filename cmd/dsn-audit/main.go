// Command dsn-audit is an end-to-end CLI demonstration of the auditing
// system on the simulated decentralized storage network. It has two modes.
//
// Audit mode (the default) builds a network, outsources a file (from disk
// or generated), runs the negotiated number of privacy-assured audit
// rounds, optionally injects provider misbehaviour, and prints the
// complete on-chain audit trail with its gas and dollar costs. With
// -remote, the storage providers are not simulated in-process: each listed
// address must be a running `dsn-audit serve` provider, the audit state is
// shipped to it over TCP, and every proof is fetched over the wire — a
// provider that is down or too slow misses its round and is slashed.
//
// Serve mode runs one storage provider as a standalone networked process
// speaking the internal/wire framed protocol.
//
// Resume mode restarts a durable local audit (one started with -state)
// that was killed mid-run: the world is rebuilt from the persisted inputs,
// the journaled rounds are replayed, and the scheduler recovers from its
// journal to finish the remaining rounds. See state.go for the exit-code
// contract (notably 3 = corrupt state).
//
// Usage:
//
//	dsn-audit [flags]                      run an audit (exit 1 if any round fails)
//	dsn-audit serve -addr :7420 -name sp   run a provider server
//	dsn-audit resume -state dir            resume a killed durable audit
//
// Audit flags:
//
//	-file path       file to outsource (default: 64 KiB of random data)
//	-s int           chunk size in blocks (default 20)
//	-k int           challenged chunks per round (default 300)
//	-rounds int      audit rounds (default 5)
//	-providers int   storage providers in the network (default 12)
//	-corrupt int     corrupt the provider's data before this round (0 = never; local only)
//	-seed string     beacon seed for reproducible runs
//	-remote list     comma-separated provider server addresses; one engagement each
//	-call-timeout d  per-request deadline against remote providers (default 60s)
//	-retries int     re-dial attempts per remote request (default 2)
//	-state dir       durable local mode: persist journal and resume inputs here
//	-tick-delay d    pause per scheduler tick (crash-testing aid; needs -state)
//
// Exit status: 0 when every audit round passes, 1 when any round fails
// verification or misses its deadline (the CI smoke tests gate on this),
// 2 on operational errors, 3 (resume only) on corrupt persisted state.
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"log"
	"math/big"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/remote"
	"repro/dsnaudit/sched"
	"repro/internal/beacon"
	"repro/internal/contract"
	"repro/internal/cost"
)

func main() {
	log.SetFlags(0)
	// ^C cancels the audit loop (or drains the server) cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(runServe(ctx, os.Args[2:]))
		case "resume":
			os.Exit(runResume(ctx, os.Args[2:]))
		}
	}
	os.Exit(runAudit(ctx, os.Args[1:]))
}

// fail reports an operational (non-verdict) error.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dsn-audit:", err)
	return 2
}

// runServe runs one provider as a standalone networked node until the
// context is canceled, then drains gracefully.
func runServe(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7420", "listen address (host:port; :0 picks a port)")
		name        = fs.String("name", "provider", "provider node name (reported in the Hello handshake)")
		workers     = fs.Int("workers", 0, "proof workers per request (0 = GOMAXPROCS)")
		metricsAddr = fs.String("metrics", "", "serve /metrics, /debug/vars and pprof on this address (host:port; \"\" = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	co, err := setupObs(*metricsAddr, "")
	if err != nil {
		return fail(err)
	}
	defer co.close()
	declareProviderFamilies(co.reg)
	node := dsnaudit.NewProviderNode(*name)
	node.Workers = *workers
	srv := remote.NewServer(node, remote.WithServerMetrics(co.reg))

	ready := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(ctx, *addr, ready) }()
	select {
	case bound := <-ready:
		// The LISTEN line is machine-readable; scripts wait for it.
		fmt.Printf("LISTEN %s\n", bound)
		fmt.Printf("dsn-audit: provider %q serving on %s (wire v%d)\n", *name, bound, wireVersion())
	case err := <-errCh:
		return fail(err)
	}
	err = <-errCh
	if err != nil && ctx.Err() == nil {
		return fail(err)
	}
	fmt.Println("dsn-audit: server drained")
	return 0
}

// wireVersion surfaces the framing version without importing wire all over
// this file.
func wireVersion() int { return remote.WireVersion }

// auditConfig carries the parsed audit-mode flags.
type auditConfig struct {
	chunkSize   int
	k           int
	rounds      int
	providers   int
	corruptAt   int
	remotes     []string
	callTimeout time.Duration
	retries     int
	seed        string
	stateDir    string
	tickDelay   time.Duration
	obs         *cliObs
}

func runAudit(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("dsn-audit", flag.ExitOnError)
	var (
		filePath    = fs.String("file", "", "file to outsource (default: random 64 KiB)")
		chunkSize   = fs.Int("s", 20, "chunk size in blocks")
		k           = fs.Int("k", 300, "challenged chunks per round")
		rounds      = fs.Int("rounds", 5, "audit rounds")
		providers   = fs.Int("providers", 12, "storage providers")
		corruptAt   = fs.Int("corrupt", 0, "corrupt data before this round (1-based; 0 = never; local mode only)")
		seed        = fs.String("seed", "", "beacon seed for reproducible runs")
		remotes     = fs.String("remote", "", "comma-separated provider server addresses (enables remote mode)")
		callTimeout = fs.Duration("call-timeout", 60*time.Second, "per-request deadline against remote providers")
		retries     = fs.Int("retries", 2, "re-dial attempts per remote request")
		stateDir    = fs.String("state", "", "directory for durable state (journal, resume inputs); local mode only")
		tickDelay   = fs.Duration("tick-delay", 0, "pause per scheduler tick (testing aid; needs -state)")
		metricsAddr = fs.String("metrics", "", "serve /metrics, /debug/vars and pprof on this address (host:port; \"\" = off)")
		traceFile   = fs.String("trace", "", "write per-engagement trace events to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := auditConfig{
		chunkSize: *chunkSize, k: *k, rounds: *rounds, providers: *providers,
		corruptAt: *corruptAt, callTimeout: *callTimeout, retries: *retries,
		seed: *seed, stateDir: *stateDir, tickDelay: *tickDelay,
	}
	if cfg.stateDir != "" && *remotes != "" {
		// Resume replays one engagement's rounds in order; interleaving N
		// needs settle heights the journal does not record.
		return fail(fmt.Errorf("-state is local mode only; remote providers keep their own state"))
	}
	if cfg.stateDir != "" && cfg.seed == "" {
		// A durable run must be reconstructible: pin a seed and persist it.
		var err error
		if cfg.seed, err = randomSeedHex(); err != nil {
			return fail(err)
		}
		fmt.Printf("generated beacon seed %s (persisted for resume)\n", cfg.seed)
	}
	if *remotes != "" {
		for _, a := range strings.Split(*remotes, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.remotes = append(cfg.remotes, a)
			}
		}
	}

	data := make([]byte, 64*1024)
	if *filePath != "" {
		var err error
		data, err = os.ReadFile(*filePath)
		if err != nil {
			return fail(err)
		}
	} else if _, err := rand.Read(data); err != nil {
		return fail(err)
	}

	var opts []dsnaudit.NetworkOption
	if cfg.seed != "" {
		b, err := beacon.NewTrusted([]byte(cfg.seed))
		if err != nil {
			return fail(err)
		}
		opts = append(opts, dsnaudit.WithBeacon(b))
	}
	net, err := dsnaudit.NewNetwork(opts...)
	if err != nil {
		return fail(err)
	}
	co, err := setupObs(*metricsAddr, *traceFile)
	if err != nil {
		return fail(err)
	}
	defer co.close()
	cfg.obs = co
	net.Chain.Instrument(co.reg)
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18))
	nProviders := cfg.providers
	if nProviders < len(cfg.remotes) {
		nProviders = len(cfg.remotes)
	}
	for i := 0; i < nProviders; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("sp-%02d", i), funds); err != nil {
			return fail(err)
		}
	}
	owner, err := dsnaudit.NewOwner(net, "owner", cfg.chunkSize, funds)
	if err != nil {
		return fail(err)
	}

	fmt.Printf("outsourcing %d bytes (s=%d, 3-of-10 erasure coding) ...\n", len(data), cfg.chunkSize)
	sf, err := owner.Outsource("cli-archive", data, 3, 7)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("  %d chunks, %.2f%% authenticator overhead, primary holder %s\n",
		sf.Encoded.NumChunks(), 100*sf.Encoded.StorageOverheadRatio(), sf.Holders[0].Name)

	terms := dsnaudit.DefaultTerms(cfg.rounds)
	terms.ChallengeSize = cfg.k

	var failedRounds int
	if len(cfg.remotes) > 0 {
		failedRounds, err = runRemoteAudit(ctx, net, owner, sf, terms, cfg)
	} else {
		failedRounds, err = runLocalAudit(ctx, net, owner, sf, terms, cfg, data, funds)
	}
	if err != nil {
		return fail(err)
	}
	if failedRounds > 0 {
		fmt.Printf("\nAUDIT FAILED: %d round(s) failed verification or missed the deadline\n", failedRounds)
		return 1
	}
	fmt.Println("\naudit passed: every round verified")
	return 0
}

// runLocalAudit drives one engagement against an in-process provider through
// the scheduler and returns the number of failed rounds. With -state the run
// is durable: the world's reconstruction inputs are persisted first and the
// scheduler journals under the state directory, so a killed process can be
// resumed (state.go).
func runLocalAudit(ctx context.Context, net *dsnaudit.Network, owner *dsnaudit.Owner, sf *dsnaudit.StoredFile, terms dsnaudit.EngagementTerms, cfg auditConfig, data []byte, funds *big.Int) (int, error) {
	verifier := &dsnaudit.BatchVerifier{}
	verifier.Instrument(cfg.obs.reg)
	opts := []sched.Option{
		sched.WithVerifier(verifier),
		sched.WithMetrics(cfg.obs.reg),
		sched.WithTracer(cfg.obs.tracer),
	}
	var tickDelay time.Duration
	if cfg.stateDir != "" {
		wc := worldConfig{Seed: cfg.seed, ChunkSize: cfg.chunkSize, K: cfg.k, Rounds: cfg.rounds, Providers: cfg.providers}
		if err := saveWorldState(cfg.stateDir, wc, owner.AuditSK, owner.EncKey, data, sf); err != nil {
			return 0, err
		}
		fmt.Printf("state persisted under %s\n", cfg.stateDir)
		jnl, err := sched.OpenJournal(filepath.Join(cfg.stateDir, stateJournalDir), stateJournalShards)
		if err != nil {
			return 0, err
		}
		// Close flushes the journal's buffered tail, so it runs on every way
		// out, an interrupted Run included; the success path checks its
		// error below (a second Close is a no-op).
		defer jnl.Close()
		opts = append(opts, sched.WithJournal(jnl), sched.WithCheckpointEvery(stateCheckpointTick))
		tickDelay = cfg.tickDelay
	}

	eng, err := owner.Engage(sf, sf.Holders[0], terms)
	if err != nil {
		return 0, err
	}
	fmt.Printf("contract %s live; on-chain key: %d bytes\n\n", eng.Contract.Addr, eng.Contract.StoredKeyBytes())
	s := sched.NewScheduler(net, opts...)
	wireAuditHooks(s, eng, cfg.corruptAt, tickDelay)
	if err := s.Add(eng); err != nil {
		return 0, err
	}
	if err := s.Run(ctx); err != nil {
		return 0, err
	}
	if jnl := s.Journal(); jnl != nil {
		if err := jnl.Close(); err != nil {
			return 0, err
		}
	}
	failed := printAuditTrail(net, owner, eng, funds)

	back, err := owner.Retrieve(sf)
	if err != nil {
		return failed, fmt.Errorf("retrieval failed: %w", err)
	}
	fmt.Printf("storage-plane retrieval intact: %v\n", bytes.Equal(back, data))
	return failed, nil
}

// runRemoteAudit engages one contract per remote provider server, ships
// each the audit state over TCP, and drives all engagements concurrently
// through the scheduler. A server that dies or stalls mid-run misses its
// round and its engagement aborts with the provider slashed; the audit
// keeps going for the rest. Returns the total number of failed rounds.
func runRemoteAudit(ctx context.Context, net *dsnaudit.Network, owner *dsnaudit.Owner, sf *dsnaudit.StoredFile, terms dsnaudit.EngagementTerms, cfg auditConfig) (int, error) {
	if len(cfg.remotes) > len(sf.Holders) {
		return 0, fmt.Errorf("%d remote providers but the file has only %d share holders", len(cfg.remotes), len(sf.Holders))
	}
	verifier := &dsnaudit.BatchVerifier{}
	verifier.Instrument(cfg.obs.reg)
	s := sched.NewScheduler(net,
		sched.WithVerifier(verifier),
		sched.WithMetrics(cfg.obs.reg),
		sched.WithTracer(cfg.obs.tracer))
	engs := make([]*dsnaudit.Engagement, 0, len(cfg.remotes))
	clients := make([]*remote.Client, 0, len(cfg.remotes))
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i, addr := range cfg.remotes {
		client := remote.NewClient(addr,
			remote.WithCallTimeout(cfg.callTimeout),
			remote.WithRetries(cfg.retries),
			remote.WithClientMetrics(cfg.obs.reg))
		clients = append(clients, client)
		holder := sf.Holders[i]
		eng, err := owner.EngageWith(ctx, sf, holder, client, terms)
		if err != nil {
			return 0, fmt.Errorf("engage %s via %s: %w", holder.Name, addr, err)
		}
		fmt.Printf("contract %s live; provider served from %s\n", eng.Contract.Addr, addr)
		engs = append(engs, eng)
		if err := s.Add(eng); err != nil {
			return 0, err
		}
	}

	fmt.Printf("\nrunning %d engagements x %d rounds against live servers ...\n", len(engs), cfg.rounds)
	// Both hooks run on the scheduler's own goroutine, so they may read
	// contract state and print without extra synchronization. The block hook
	// streams settlement progress (scripts — the CI smoke test kills a
	// provider mid-run — key off these lines); the outcome hook prints each
	// engagement's full audit trail the moment its terminal result lands, so
	// nothing polls Results anymore.
	addrOf := make(map[string]string, len(engs))
	for i, eng := range engs {
		addrOf[string(eng.ID())] = cfg.remotes[i]
	}
	total := len(engs) * cfg.rounds
	reported := 0
	s.OnBlock(func(uint64) {
		settled := 0
		for _, eng := range engs {
			settled += len(eng.Contract.Records())
		}
		if settled > reported {
			reported = settled
			fmt.Printf("progress: %d/%d rounds settled\n", settled, total)
		}
	})
	price := cost.PaperPrice()
	failed, passed := 0, 0
	s.OnOutcome(func(out dsnaudit.Outcome) {
		res := out.Result
		failed += res.Failed
		passed += res.Passed
		fmt.Printf("\nengagement %s via %s:\n", out.ID, addrOf[string(out.ID)])
		for _, rec := range out.Eng.Contract.Records() {
			fmt.Printf("  round %d: passed=%-5v proof=%dB gas=%d ($%.4f)\n",
				rec.Round+1, rec.Passed, rec.ProofSize, rec.GasUsed, price.GasToUSD(rec.GasUsed))
		}
		state := out.Eng.Contract.State()
		fmt.Printf("  state=%v rounds=%d passed=%d failed=%d\n", state, res.Rounds, res.Passed, res.Failed)
		if state == contract.StateAborted {
			fmt.Printf("  provider %s slashed (missed or failed a round)\n", out.Eng.Provider.Name)
		}
		if res.Err != nil {
			fmt.Printf("  engagement error: %v\n", res.Err)
			failed++
		}
	})
	if err := s.Run(ctx); err != nil {
		return 0, err
	}
	fmt.Printf("\naudit summary: %d engagements, %d rounds settled, %d passed, %d failed\n",
		len(engs), passed+failed, passed, failed)
	fmt.Printf("chain: %d blocks, %d bytes, %d gas total\n",
		net.Chain.Height(), net.Chain.TotalBytes(), net.Chain.TotalGas())
	return failed, nil
}

// printChainStats prints the shared footer of the local mode.
func printChainStats(net *dsnaudit.Network, owner *dsnaudit.Owner, provider *dsnaudit.ProviderNode, funds *big.Int) {
	fmt.Printf("chain: %d blocks, %d bytes, %d gas total\n",
		net.Chain.Height(), net.Chain.TotalBytes(), net.Chain.TotalGas())
	fmt.Printf("owner balance delta: %s wei\n",
		new(big.Int).Sub(net.Chain.Balance(owner.Address()), funds))
	fmt.Printf("provider balance delta: %s wei\n",
		new(big.Int).Sub(net.Chain.Balance(provider.Address()), funds))
}
