// Durable local audits and the resume path.
//
// With -state DIR the local audit mode becomes crash-safe. Before the first
// round the genesis inputs (the config with its beacon seed, the owner's
// keys) and the provider's audit state are persisted under DIR; from then on
// the chain writes its history to DIR/chain.log and the scheduler journals
// to DIR/journal. If the process dies — kill -9 included —
//
//	dsn-audit resume -state DIR
//
// builds genesis again from the persisted inputs and replays chain.log onto
// it (contract.Replay: every contract call again, verdicts trusted with the
// gas they were charged, every block re-sealed and checked against its
// mark), so the chain stands where the dead process's chain stood. The
// in-process provider gets its audit state back through its checked
// acceptance, without a contract call. Then resume hands the journal to
// sched.Recover — which reconciles the rounds the chain settled after the
// journal's last barrier, each observed into reputation once — and drives
// the remaining rounds to the verdict the uninterrupted run would have
// produced.
//
// Resume exit codes:
//
//	0  every audit round passed
//	1  at least one round failed verification or missed its deadline
//	2  operational error (a missing state dir or file — a state dir written
//	   before the chain kept its log has no chain.log —, network failure, ...)
//	3  corrupt state: the journal, checkpoint, chain log, or a persisted
//	   artifact failed its integrity check (sched.ErrJournalCorrupt,
//	   sched.ErrCheckpointCorrupt, chain.ErrLogCorrupt, core.ErrMalformed,
//	   dsnaudit.ErrRejectedAuditData)
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
)

// worldConfig is the JSON-persisted set of parameters a fresh process
// builds the audit world's genesis from.
type worldConfig struct {
	Seed      string `json:"seed"`
	ChunkSize int    `json:"chunk_size"`
	K         int    `json:"k"`
	Rounds    int    `json:"rounds"`
	Providers int    `json:"providers"`
}

// funds is every account's opening balance; the balance deltas a run prints
// are relative to it.
var funds = big.NewInt(1e18)

// build makes the world every audit path starts from: a network on the
// seed's trusted beacon (a random beacon for an empty seed) with its chain
// instrumented on reg, the funded providers sp-00, sp-01, ..., and the
// engagement terms. Built again from the persisted config, with the owner
// funded, it is the genesis a resume replays the chain log onto.
func (wc worldConfig) build(reg *obs.Registry) (*dsnaudit.Network, dsnaudit.EngagementTerms, error) {
	terms := dsnaudit.DefaultTerms(wc.Rounds)
	terms.ChallengeSize = wc.K
	var opts []dsnaudit.NetworkOption
	if wc.Seed != "" {
		b, err := beacon.NewTrusted([]byte(wc.Seed))
		if err != nil {
			return nil, terms, err
		}
		opts = append(opts, dsnaudit.WithBeacon(b))
	}
	net, err := dsnaudit.NewNetwork(opts...)
	if err != nil {
		return nil, terms, err
	}
	net.Chain.Instrument(reg)
	for i := 0; i < wc.Providers; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("sp-%02d", i), funds); err != nil {
			return nil, terms, err
		}
	}
	return net, terms, nil
}

const (
	stateConfigName = "config.json"
	stateOwnerKey   = "owner.key"
	stateEncKey     = "enc.key"
	stateAuditName  = "audit.state"
	stateChainLog   = "chain.log"
	stateJournalDir = "journal"

	stateCheckpointTick = 4
)

// failCorrupt reports a failed integrity check on persisted state.
func failCorrupt(err error) int {
	fmt.Fprintln(os.Stderr, "dsn-audit: corrupt state:", err)
	return 3
}

// corruptExit classifies err: integrity failures exit 3, the rest 2.
func corruptExit(err error) int {
	if errors.Is(err, sched.ErrJournalCorrupt) ||
		errors.Is(err, sched.ErrCheckpointCorrupt) ||
		errors.Is(err, chain.ErrLogCorrupt) ||
		errors.Is(err, core.ErrMalformed) ||
		errors.Is(err, dsnaudit.ErrRejectedAuditData) {
		return failCorrupt(err)
	}
	return fail(err)
}

// saveWorldState persists what resume needs besides the chain log: the
// genesis inputs, and the audit state (authenticators over every chunk) the
// in-process provider gets back.
func saveWorldState(dir string, cfg worldConfig, sk *core.PrivateKey, encKey []byte, sf *dsnaudit.StoredFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfgBytes, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	skBytes, err := core.MarshalPrivateKey(sk)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{stateConfigName, cfgBytes},
		{stateOwnerKey, skBytes},
		{stateEncKey, encKey},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o600); err != nil {
			return err
		}
	}
	return core.SaveAuditState(filepath.Join(dir, stateAuditName), sf.Encoded, sf.Auths)
}

// wireAuditHooks attaches the shared block hook of the local audit and the
// resume: per-round progress lines (TestCrashResume times its kills off
// these), the optional round-targeted corruption, and the
// optional per-tick delay that holds the run open long enough to kill.
func wireAuditHooks(s *sched.Scheduler, eng *dsnaudit.Engagement, corruptAt int, tickDelay time.Duration) {
	reported := len(eng.Contract.Records())
	corrupted := false
	s.OnBlock(func(uint64) {
		// Runs on the scheduler goroutine: contract reads and prints need
		// no extra synchronization.
		if n := len(eng.Contract.Records()); n > reported {
			reported = n
			fmt.Printf("progress: %d rounds settled\n", n)
		}
		if corruptAt > 0 && !corrupted && len(eng.Contract.Records()) == corruptAt-1 {
			corrupted = true
			if prover, ok := eng.Provider.Prover(eng.Contract.Addr); ok {
				for c := 0; c < prover.File.NumChunks(); c++ {
					prover.File.Corrupt(c, 0)
				}
				fmt.Printf("!! provider %s silently corrupted its copy\n", eng.Provider.Name)
			}
		}
		if tickDelay > 0 {
			time.Sleep(tickDelay)
		}
	})
}

// printAuditTrail prints the full on-chain trail, the summary line and the
// balance deltas a resumed run must reproduce, and the chain totals; it
// returns the failed-round count.
func printAuditTrail(net *dsnaudit.Network, owner *dsnaudit.Owner, eng *dsnaudit.Engagement) int {
	price := cost.PaperPrice()
	passed, failed := 0, 0
	fmt.Println()
	for _, rec := range eng.Contract.Records() {
		fmt.Printf("round %d: passed=%-5v proof=%dB gas=%d ($%.4f)\n",
			rec.Round+1, rec.Passed, rec.ProofSize, rec.GasUsed, price.GasToUSD(rec.GasUsed))
		if rec.Passed {
			passed++
		} else {
			failed++
			fmt.Printf("         provider slashed; contract %v\n", eng.Contract.State())
		}
	}
	fmt.Printf("\nfinal state: %v\n", eng.Contract.State())
	fmt.Printf("audit summary: 1 engagements, %d rounds settled, %d passed, %d failed\n",
		passed+failed, passed, failed)
	fmt.Printf("chain: %d blocks, %d bytes, %d gas total\n",
		net.Chain.Height(), net.Chain.TotalBytes(), net.Chain.TotalGas())
	fmt.Printf("owner balance delta: %s wei\n",
		new(big.Int).Sub(net.Chain.Balance(owner.Address()), funds))
	fmt.Printf("provider balance delta: %s wei\n",
		new(big.Int).Sub(net.Chain.Balance(eng.Provider.Address()), funds))
	return failed
}

// runResume implements the `resume` subcommand: genesis, replay, recover,
// finish. See the package comment for the exit-code contract.
func runResume(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	var (
		stateDir    = fs.String("state", "", "state directory of the interrupted run (required)")
		tickDelay   = fs.Duration("tick-delay", 0, "pause per scheduler tick (testing aid)")
		metricsAddr = fs.String("metrics", "", "serve /metrics, /debug/vars and pprof on this address (host:port; \"\" = off)")
		traceFile   = fs.String("trace", "", "write per-engagement trace events to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *stateDir == "" {
		return fail(errors.New("resume requires -state"))
	}
	co, err := setupObs(*metricsAddr, *traceFile)
	if err != nil {
		return fail(err)
	}
	defer co.close()

	// Load the persisted inputs. Key and audit-state decoding failures are
	// integrity failures (core.ErrMalformed), not operational ones.
	var cfg worldConfig
	cfgBytes, err := os.ReadFile(filepath.Join(*stateDir, stateConfigName))
	if err != nil {
		return fail(err)
	}
	if err := json.Unmarshal(cfgBytes, &cfg); err != nil {
		return failCorrupt(fmt.Errorf("%s: %v", stateConfigName, err))
	}
	skBytes, err := os.ReadFile(filepath.Join(*stateDir, stateOwnerKey))
	if err != nil {
		return fail(err)
	}
	sk, err := core.UnmarshalPrivateKey(skBytes)
	if err != nil {
		return corruptExit(fmt.Errorf("%s: %w", stateOwnerKey, err))
	}
	encKey, err := os.ReadFile(filepath.Join(*stateDir, stateEncKey))
	if err != nil {
		return fail(err)
	}
	ef, auths, err := core.LoadAuditState(filepath.Join(*stateDir, stateAuditName))
	if err != nil {
		return corruptExit(fmt.Errorf("%s: %w", stateAuditName, err))
	}

	// Genesis, then the chain's own history on top of it.
	net, _, err := cfg.build(co.reg)
	if err != nil {
		return fail(err)
	}
	owner, err := dsnaudit.NewOwnerWithKeys(net, "owner", sk, encKey, funds)
	if err != nil {
		return fail(err)
	}
	clog, recs, err := chain.OpenLog(filepath.Join(*stateDir, stateChainLog))
	if err != nil {
		return corruptExit(err)
	}
	defer clog.Close()
	contracts, err := contract.Replay(net.Chain, recs, net.Beacon)
	if err != nil {
		return corruptExit(err)
	}
	if len(contracts) != 1 {
		return failCorrupt(fmt.Errorf("%s deploys %d contracts; a local audit deploys one", stateChainLog, len(contracts)))
	}
	k := contracts[0]
	provider, ok := net.Provider(string(k.Terms.Provider))
	if !ok || k.Terms.Owner != owner.Address() {
		return failCorrupt(fmt.Errorf("contract %s is not between this owner and a provider of this world", k.Addr))
	}
	net.Chain.AttachLog(clog)
	if err := provider.AcceptAuditData(ctx, k.Addr, k.Terms.PublicKey, ef, auths, 8); err != nil {
		return corruptExit(fmt.Errorf("%s: %w", stateAuditName, err))
	}
	eng := net.AdoptEngagement(k, owner, provider, nil)
	fmt.Printf("replayed %d settled round(s) onto contract %s, chain at height %d\n", len(k.Records()), k.Addr, net.Chain.Height())
	// The journal's last wake beside the chain's height: Recover resumes at
	// the lower of the two, so a chain below it shows a run that died
	// between a tick mark and that tick's seal.
	view, err := sched.LoadJournalView(filepath.Join(*stateDir, stateJournalDir))
	if err != nil {
		return corruptExit(err)
	}
	fmt.Printf("journal: %d entries, last wake height %d\n", len(view.Entries), view.LastWake)

	s, rep, err := sched.Recover(filepath.Join(*stateDir, stateJournalDir), net,
		func(addr chain.Address) (*dsnaudit.Engagement, error) {
			if addr != eng.ID() {
				return nil, fmt.Errorf("unknown journaled contract %s", addr)
			}
			return eng, nil
		}, append(co.schedOptions(), sched.WithCheckpointEvery(stateCheckpointTick))...)
	if err != nil {
		return corruptExit(err)
	}
	fmt.Printf("recovered: %d entries (%d live, %d terminal), %d records replayed, %d rounds reconciled, %d torn bytes, resuming at height %d\n",
		rep.Entries, rep.Live, rep.Terminal, rep.Replayed, rep.Reconciled, rep.TornBytes, rep.ResumeHeight)

	// As in runLocalAudit: flush the journal's tail on every way out.
	defer s.Journal().Close()
	wireAuditHooks(s, eng, 0, *tickDelay)
	if err := s.Run(ctx); err != nil {
		return fail(err)
	}
	if err := s.Journal().Close(); err != nil {
		return fail(err)
	}
	if err := clog.Close(); err != nil {
		return fail(err)
	}
	if failed := printAuditTrail(net, owner, eng); failed > 0 {
		fmt.Printf("\nAUDIT FAILED: %d round(s) failed verification or missed the deadline\n", failed)
		return 1
	}
	fmt.Println("\naudit passed: every round verified")
	return 0
}

// randomSeedHex generates the persisted beacon seed when the user did not
// pin one: a durable run must be reconstructible, so an ephemeral random
// beacon is not an option.
func randomSeedHex() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}
