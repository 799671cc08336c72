// Durable local audits and the resume path.
//
// With -state DIR the local audit mode becomes crash-safe: the world's
// reconstruction inputs (beacon seed, owner keys, data, audit state) are
// persisted under DIR before the first round and the scheduler journals
// to DIR/journal. If the process dies — kill -9 included —
//
//	dsn-audit resume -state DIR
//
// rebuilds the same world from the persisted inputs, replays the journaled
// settled rounds onto the rebuilt contract (trusted settlement, no
// re-verification, funds and reputation land exactly once), hands the
// journal to sched.Recover, and drives the remaining rounds to the verdict
// the uninterrupted run would have produced.
//
// Resume exit codes:
//
//	0  every audit round passed
//	1  at least one round failed verification or missed its deadline
//	2  operational error (missing state dir, network failure, ...)
//	3  corrupt state: the journal, checkpoint, or a persisted artifact
//	   failed its integrity check (sched.ErrJournalCorrupt,
//	   sched.ErrCheckpointCorrupt, core.ErrMalformed)
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
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/storage"
)

// worldConfig is the JSON-persisted set of parameters needed to rebuild the
// audit world deterministically in a fresh process.
type worldConfig struct {
	Seed      string `json:"seed"`
	ChunkSize int    `json:"chunk_size"`
	K         int    `json:"k"`
	Rounds    int    `json:"rounds"`
	Providers int    `json:"providers"`
}

const (
	stateConfigName = "config.json"
	stateOwnerKey   = "owner.key"
	stateEncKey     = "enc.key"
	stateDataName   = "data.bin"
	stateAuditName  = "audit.state"
	stateJournalDir = "journal"

	stateJournalShards  = 4
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
		errors.Is(err, core.ErrMalformed) {
		return failCorrupt(err)
	}
	return fail(err)
}

// saveWorldState persists everything resume needs to rebuild the world.
// The audit state is the expensive artifact (authenticators over every
// chunk); the rest are the generating inputs.
func saveWorldState(dir string, cfg worldConfig, sk *core.PrivateKey, encKey, data []byte, sf *dsnaudit.StoredFile) error {
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
		{stateDataName, data},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o600); err != nil {
			return err
		}
	}
	return core.SaveAuditState(filepath.Join(dir, stateAuditName), sf.Encoded, sf.Auths)
}

// wireAuditHooks attaches the shared block hook of the local audit and the
// resume: per-round progress lines (the crash smoke script keys off these
// to time its kill), the optional round-targeted corruption, and the
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

// printAuditTrail prints the full on-chain trail, the summary line the
// crash smoke script compares across runs, and the balance deltas; it
// returns the failed-round count.
func printAuditTrail(net *dsnaudit.Network, owner *dsnaudit.Owner, eng *dsnaudit.Engagement, funds *big.Int) int {
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
	printChainStats(net, owner, eng.Provider, funds)
	return failed
}

// runResume implements the `resume` subcommand: rebuild, replay, recover,
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

	// Load the persisted world. Key and audit-state decoding failures are
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
	data, err := os.ReadFile(filepath.Join(*stateDir, stateDataName))
	if err != nil {
		return fail(err)
	}
	ef, auths, err := core.LoadAuditState(filepath.Join(*stateDir, stateAuditName))
	if err != nil {
		return corruptExit(fmt.Errorf("%s: %w", stateAuditName, err))
	}
	view, err := sched.LoadJournalView(filepath.Join(*stateDir, stateJournalDir))
	if err != nil {
		return corruptExit(err)
	}
	fmt.Printf("journal: %d entries, last wake height %d\n", len(view.Entries), view.LastWake)

	// Rebuild the world from its generating inputs: same seed, same
	// provider set, same keys — the DHT places the file on the same
	// holders and Engage lands the contract at the same address.
	b, err := beacon.NewTrusted([]byte(cfg.Seed))
	if err != nil {
		return fail(err)
	}
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b))
	if err != nil {
		return fail(err)
	}
	net.Chain.Instrument(co.reg)
	// Same stake as runAudit: the balance deltas the smoke script compares
	// are relative to this.
	funds := new(big.Int).Mul(big.NewInt(1), big.NewInt(1e18))
	for i := 0; i < cfg.Providers; i++ {
		if _, err := net.AddProvider(fmt.Sprintf("sp-%02d", i), funds); err != nil {
			return fail(err)
		}
	}
	owner, err := dsnaudit.NewOwnerWithKeys(net, "owner", sk, encKey, funds)
	if err != nil {
		return fail(err)
	}
	man, shares, err := storage.Prepare("cli-archive", encKey, data, 3, 7, rand.Reader)
	if err != nil {
		return fail(err)
	}
	holders, err := net.LocateProviders("cli-archive", len(shares))
	if err != nil {
		return fail(err)
	}
	for i, share := range shares {
		holders[i].Store.Put(man.ShareKeys[i], share)
	}
	sf := &dsnaudit.StoredFile{Manifest: man, Encoded: ef, Auths: auths, Holders: holders}
	terms := dsnaudit.DefaultTerms(cfg.Rounds)
	terms.ChallengeSize = cfg.K
	eng, err := owner.Engage(sf, holders[0], terms)
	if err != nil {
		return fail(err)
	}

	entry, ok := view.Entry(eng.ID())
	if !ok {
		return failCorrupt(fmt.Errorf("journal has no entry for %s: state dir does not describe this world", eng.ID()))
	}
	for _, sr := range entry.Settled {
		if err := replaySettledRound(net, eng, sr); err != nil {
			return fail(fmt.Errorf("replay round %d: %w", sr.Round+1, err))
		}
	}
	fmt.Printf("replayed %d settled round(s) onto contract %s\n", len(entry.Settled), eng.Contract.Addr)

	s, rep, err := sched.Recover(filepath.Join(*stateDir, stateJournalDir), net,
		func(addr chain.Address) (*dsnaudit.Engagement, error) {
			if addr != eng.ID() {
				return nil, fmt.Errorf("unknown journaled contract %s", addr)
			}
			return eng, nil
		},
		sched.WithCheckpointEvery(stateCheckpointTick),
		sched.WithMetrics(co.reg),
		sched.WithTracer(co.tracer))
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
	if failed := printAuditTrail(net, owner, eng, funds); failed > 0 {
		fmt.Printf("\nAUDIT FAILED: %d round(s) failed verification or missed the deadline\n", failed)
		return 1
	}
	fmt.Println("\naudit passed: every round verified")
	return 0
}

// replaySettledRound re-applies one journal-witnessed settled round to the
// rebuilt contract. The verdict is already final — it was settled on the
// dead process's chain — so it is applied with SettleTrustedAt (no
// re-verification) and observed into the reputation ledger exactly once.
func replaySettledRound(net *dsnaudit.Network, eng *dsnaudit.Engagement, sr sched.SettledRound) error {
	k := eng.Contract
	for net.Chain.Height() < k.TriggerHeight() {
		net.Chain.MineBlock()
	}
	if _, err := k.IssueChallenge(); err != nil {
		return err
	}
	if sr.Deadline {
		for net.Chain.Height() < k.TriggerHeight() {
			net.Chain.MineBlock()
		}
		return eng.SettleMissedDeadline()
	}
	// A canned proof of the real wire size keeps the gas accounting
	// faithful; SettleTrustedAt never parses it.
	if err := k.SubmitProof(eng.Provider.Address(), make([]byte, core.PrivateProofSize)); err != nil {
		return err
	}
	net.Chain.MineBlock()
	if _, err := k.SettleTrustedAt(sr.Passed, net.Chain.Height()); err != nil {
		return err
	}
	eng.RecordSettledRound(sr.Passed)
	return nil
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
