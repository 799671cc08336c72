package sched

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"

	"repro/dsnaudit"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/core"
)

// The crash matrix is the durability layer's behavioral contract, stated as
// an experiment: kill a journaled scheduler at every labeled CrashPoint (at
// several occurrences of each), recover it from disk, drive the recovered
// run to completion, and demand the outcome — every engagement's rounds and
// terminal state, the final chain height, total gas within proof-entropy
// tolerance, every balance, every reputation score — identical to an
// uninterrupted run of the same fixture. It runs without a testing.T so the
// same harness backs both `go test` (crash_test.go) and the
// `-exp crash` experiment gate.

// CrashMatrixConfig sizes the matrix run.
type CrashMatrixConfig struct {
	Seed        string // beacon seed (default "crash-matrix")
	Rounds      int    // audit rounds per engagement (default 3)
	Shards      int    // scheduler shards (default 4)
	Parallelism int    // settlement parallelism (default 2)
	// CheckpointEvery is the checkpoint cadence in ticks (default 3 — small
	// enough that CrashMidCheckpoint fires several times per run).
	CheckpointEvery int
	// Occurrences selects which firings of each crash point to kill at
	// (default {1, 2, 3, 5, 8, 13, 21}): from the first tick to past the
	// run's last settled block. An occurrence a point never reaches is
	// recorded as not fired, not failed — but with any occurrence >= 5
	// configured, one of the three coalesced-flush points must fire at one:
	// the early flushes hold no settled record, and a lost settled record
	// is the case reconciliation exists for.
	Occurrences []int
	// Dir is the root for per-case journal directories (default: a fresh
	// temp directory, removed afterwards).
	Dir string
	// Logf, when set, receives per-case progress lines.
	Logf func(format string, args ...any)
}

// The journaled runs' synced-flush cadence in ticks and buffer-full threshold
// in bytes (two or three records): small enough that the coalescing crash
// points — buffer-full and barrier flushes and the mid-coalesced-write tear —
// fire throughout a run, not just in its first ticks.
const (
	matrixFlushEvery = 2
	matrixFlushBytes = 96
)

func (c *CrashMatrixConfig) applyDefaults() {
	if c.Seed == "" {
		c.Seed = "crash-matrix"
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 2
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 3
	}
	if len(c.Occurrences) == 0 {
		c.Occurrences = []int{1, 2, 3, 5, 8, 13, 21}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// CrashCase is one (point, occurrence) cell of the matrix.
type CrashCase struct {
	Point      CrashPoint
	Occurrence int
	Fired      bool // the run actually died at this occurrence
	Recovery   *RecoveryReport
	Diffs      []string // mismatches against the uninterrupted baseline
}

// CrashMatrixReport is the whole matrix outcome. Failures is empty iff every
// gate held: all diffs empty, every crash point fired at least once (a
// coalesced-flush point at an occurrence >= 5, when one is configured),
// recovery touched no chain history, and the resolver was called exactly
// once per recovered entry.
type CrashMatrixReport struct {
	Cases    []CrashCase
	Failures []string
}

// OK reports whether every matrix gate held.
func (r *CrashMatrixReport) OK() bool { return len(r.Failures) == 0 }

// crashFixture mirrors the scheduler parity fixture: a deterministic
// many-owner deployment exercising every outcome class — an EngageAll set
// over ten holders of a shared file, an extra honest engagement, a cheater
// with fully corrupted audit state, and a provider whose responder is dead.
type crashFixture struct {
	net  *dsnaudit.Network
	engs []*dsnaudit.Engagement
}

// deadResponder fails every challenge: the deadline/slash path.
type deadResponder struct{}

func (deadResponder) Respond(context.Context, chain.Address, *core.Challenge) ([]byte, error) {
	return nil, errors.New("responder down")
}

func buildCrashFixture(seed string, rounds int) (*crashFixture, error) {
	wei := func(n int64) *big.Int {
		return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
	}
	b, err := beacon.NewTrusted([]byte(seed))
	if err != nil {
		return nil, err
	}
	net, err := dsnaudit.NewNetwork(dsnaudit.WithBeacon(b))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 12; i++ {
		if _, err := net.AddProvider("sp-"+string(rune('a'+i)), wei(1)); err != nil {
			return nil, err
		}
	}
	terms := dsnaudit.DefaultTerms(rounds)
	terms.ChallengeSize = 4
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i * 11)
	}

	alice, err := dsnaudit.NewOwner(net, "alice", 4, wei(1))
	if err != nil {
		return nil, err
	}
	sf, err := alice.Outsource("shared-file", data, 3, 7)
	if err != nil {
		return nil, err
	}
	set, err := alice.EngageAll(sf, terms)
	if err != nil {
		return nil, err
	}

	bob, err := dsnaudit.NewOwner(net, "bob", 4, wei(1))
	if err != nil {
		return nil, err
	}
	sfB, err := bob.Outsource("bob-file", data, 3, 7)
	if err != nil {
		return nil, err
	}
	engB, err := bob.Engage(sfB, sfB.Holders[0], terms)
	if err != nil {
		return nil, err
	}

	carol, err := dsnaudit.NewOwner(net, "carol", 4, wei(1))
	if err != nil {
		return nil, err
	}
	sfC, err := carol.Outsource("carol-file", data, 3, 7)
	if err != nil {
		return nil, err
	}
	engC, err := carol.Engage(sfC, sfC.Holders[0], terms)
	if err != nil {
		return nil, err
	}
	prover, ok := engC.Provider.Prover(engC.Contract.Addr)
	if !ok {
		return nil, errors.New("sched: crash fixture lost its cheater's prover state")
	}
	for i := 0; i < prover.File.NumChunks(); i++ {
		prover.File.Corrupt(i, 0)
	}

	dave, err := dsnaudit.NewOwner(net, "dave", 4, wei(1))
	if err != nil {
		return nil, err
	}
	sfD, err := dave.Outsource("dave-file", data, 3, 7)
	if err != nil {
		return nil, err
	}
	engD, err := dave.Engage(sfD, sfD.Holders[0], terms)
	if err != nil {
		return nil, err
	}
	engD.Responder = deadResponder{}

	engs := append(append([]*dsnaudit.Engagement(nil), set.Engagements...), engB, engC, engD)
	return &crashFixture{net: net, engs: engs}, nil
}

// matrixSnapshot is everything a crash case is judged on.
type matrixSnapshot struct {
	results  map[string]string
	height   uint64
	gas      uint64
	balances map[string]string
	trust    map[string]string
}

func takeMatrixSnapshot(fx *crashFixture, result func(chain.Address) (dsnaudit.Result, bool)) (*matrixSnapshot, error) {
	s := &matrixSnapshot{
		results:  make(map[string]string),
		height:   fx.net.Chain.Height(),
		gas:      fx.net.Chain.TotalGas(),
		balances: make(map[string]string),
		trust:    make(map[string]string),
	}
	owners := map[string]bool{}
	for _, e := range fx.engs {
		res, ok := result(e.ID())
		if !ok {
			return nil, fmt.Errorf("sched: crash matrix: no result for %s", e.ID())
		}
		key := e.Owner.Name + "/" + e.Provider.Name
		s.results[key] = fmt.Sprintf("rounds=%d passed=%d failed=%d state=%v err=%v",
			res.Rounds, res.Passed, res.Failed, res.State, res.Err != nil)
		s.balances[e.Provider.Name] = fx.net.Chain.Balance(chain.Address(e.Provider.Name)).String()
		s.trust[e.Provider.Name] = fmt.Sprintf("%.9f", fx.net.Reputation.Trust(e.Provider.Name))
		owners[e.Owner.Name] = true
	}
	for name := range owners {
		s.balances[name] = fx.net.Chain.Balance(chain.Address(name)).String()
	}
	return s, nil
}

// diffMatrixSnapshots lists every behavioral mismatch between a crash case
// and the uninterrupted baseline. Final height, every round account, every
// balance and every reputation score compare exactly; total gas within the
// proof-entropy tolerance parity testing uses (fresh seals make proof
// calldata lengths wobble a few bytes per proof; structural divergence moves
// gas by tens of thousands).
func diffMatrixSnapshots(want, got *matrixSnapshot) []string {
	var diffs []string
	if got.height != want.height {
		diffs = append(diffs, fmt.Sprintf("final height %d, want %d", got.height, want.height))
	}
	const gasTolerance = 8_000
	if d := int64(got.gas) - int64(want.gas); d > gasTolerance || d < -gasTolerance {
		diffs = append(diffs, fmt.Sprintf("total gas %d, want %d (±%d)", got.gas, want.gas, int64(gasTolerance)))
	}
	for k, w := range want.results {
		if g := got.results[k]; g != w {
			diffs = append(diffs, fmt.Sprintf("%s result %q, want %q", k, g, w))
		}
	}
	for k, w := range want.balances {
		if g := got.balances[k]; g != w {
			diffs = append(diffs, fmt.Sprintf("%s balance %s, want %s", k, g, w))
		}
	}
	for k, w := range want.trust {
		if g := got.trust[k]; g != w {
			diffs = append(diffs, fmt.Sprintf("%s trust %s, want %s", k, g, w))
		}
	}
	return diffs
}

// RunCrashMatrix runs the full crash-injection matrix: an uninterrupted
// baseline, then one crashed-and-recovered run per (CrashPoint, occurrence)
// cell, each diffed against the baseline. CrashMidCoalescedWrite tears a
// multi-record write mid-buffer (single-record torn tails stay pinned by the
// journal's unit and fuzz tests). Known exclusion: admission deferral
// (WithMaxInflightPerShard) is not part of the matrix — a deferred-not-
// issued challenge may be re-admitted one tick earlier after recovery,
// which is behaviorally harmless (no deadline was running) but not
// byte-identical.
func RunCrashMatrix(cfg CrashMatrixConfig) (*CrashMatrixReport, error) {
	cfg.applyDefaults()
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "sched-crash-matrix-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}

	fx, err := buildCrashFixture(cfg.Seed, cfg.Rounds)
	if err != nil {
		return nil, err
	}
	ref := NewScheduler(fx.net, WithShards(cfg.Shards), WithParallelism(cfg.Parallelism))
	for _, e := range fx.engs {
		if err := ref.Add(e); err != nil {
			return nil, err
		}
	}
	if err := ref.Run(context.Background()); err != nil {
		return nil, fmt.Errorf("sched: crash matrix baseline: %w", err)
	}
	want, err := takeMatrixSnapshot(fx, ref.Result)
	if err != nil {
		return nil, err
	}
	cfg.Logf("crash matrix: baseline height=%d gas=%d engagements=%d", want.height, want.gas, len(fx.engs))

	rep := &CrashMatrixReport{}
	firedAt := make(map[CrashPoint]bool)
	// flushDepth is the occurrence from which a lost flush holds settled
	// records: when one that deep is configured, a flush point must fire at one.
	const flushDepth = 5
	needDeepFlush, firedDeepFlush := false, false
	for _, point := range CrashPoints {
		for _, occ := range cfg.Occurrences {
			cse, err := runCrashCase(cfg, point, occ, want)
			if err != nil {
				return nil, fmt.Errorf("sched: crash matrix %s#%d: %w", point, occ, err)
			}
			rep.Cases = append(rep.Cases, *cse)
			if occ >= flushDepth {
				needDeepFlush = true
				switch point {
				case CrashBufferFlush, CrashBarrierFlush, CrashMidCoalescedWrite:
					firedDeepFlush = firedDeepFlush || cse.Fired
				}
			}
			if cse.Fired {
				firedAt[point] = true
			}
			for _, d := range cse.Diffs {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s#%d: %s", point, occ, d))
			}
			status := "recovered clean"
			if !cse.Fired {
				status = "never fired (run completed)"
			} else if len(cse.Diffs) > 0 {
				status = fmt.Sprintf("%d diffs", len(cse.Diffs))
			}
			cfg.Logf("crash matrix: %-14s occurrence %d: %s", point, occ, status)
		}
	}
	for _, point := range CrashPoints {
		if !firedAt[point] {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: never fired at any configured occurrence", point))
		}
	}
	if needDeepFlush && !firedDeepFlush {
		rep.Failures = append(rep.Failures, fmt.Sprintf("no coalesced-flush point fired at an occurrence >= %d, where a lost flush holds settled records", flushDepth))
	}
	return rep, nil
}

// runCrashCase runs one matrix cell: a fresh fixture, a journaled scheduler
// killed at the occ-th firing of point, recovery from the journal directory,
// and the recovered run driven to completion.
func runCrashCase(cfg CrashMatrixConfig, point CrashPoint, occ int, want *matrixSnapshot) (*CrashCase, error) {
	cse := &CrashCase{Point: point, Occurrence: occ}
	fx, err := buildCrashFixture(cfg.Seed, cfg.Rounds)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("%s-%d", point, occ))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jnl, err := OpenJournal(dir, cfg.Shards)
	if err != nil {
		return nil, err
	}
	jnl.flushBytes = matrixFlushBytes
	fired := 0
	sched := NewScheduler(fx.net,
		WithShards(cfg.Shards),
		WithParallelism(cfg.Parallelism),
		WithJournal(jnl),
		WithCheckpointEvery(cfg.CheckpointEvery),
		WithJournalFlushEvery(matrixFlushEvery),
		WithCrashHook(func(p CrashPoint) bool {
			if p != point {
				return false
			}
			fired++
			return fired == occ
		}),
	)
	for _, e := range fx.engs {
		if err := sched.Add(e); err != nil {
			return nil, err
		}
	}
	err = sched.Run(context.Background())
	jnl.Close()
	if err == nil {
		// The point never reached this occurrence; the journaled run
		// completed. Journaling must still be behavior-neutral.
		got, serr := takeMatrixSnapshot(fx, sched.Result)
		if serr != nil {
			return nil, serr
		}
		cse.Diffs = diffMatrixSnapshots(want, got)
		return cse, nil
	}
	if !errors.Is(err, ErrCrashed) {
		return nil, err
	}
	cse.Fired = true

	// The crashed instance is dead; everything below is disk + chain.
	resolve := make(map[chain.Address]*dsnaudit.Engagement, len(fx.engs))
	for _, e := range fx.engs {
		resolve[e.ID()] = e
	}
	historyBefore := fx.net.Chain.HistoryReads()
	rs, rrep, err := Recover(dir, fx.net, func(addr chain.Address) (*dsnaudit.Engagement, error) {
		e, ok := resolve[addr]
		if !ok {
			return nil, fmt.Errorf("unknown engagement %s", addr)
		}
		return e, nil
	}, WithShards(cfg.Shards), WithParallelism(cfg.Parallelism), WithCheckpointEvery(cfg.CheckpointEvery),
		WithJournalFlushEvery(matrixFlushEvery))
	if err != nil {
		return nil, err
	}
	rs.journal.flushBytes = matrixFlushBytes
	cse.Recovery = rrep
	if d := fx.net.Chain.HistoryReads() - historyBefore; d != 0 {
		cse.Diffs = append(cse.Diffs, fmt.Sprintf("recovery read chain history %d times, want 0 (no-rescan pin)", d))
	}
	if rrep.ResolverCalls != rrep.Entries {
		cse.Diffs = append(cse.Diffs, fmt.Sprintf("resolver called %d times for %d entries, want exactly one each", rrep.ResolverCalls, rrep.Entries))
	}
	err = rs.Run(context.Background())
	rs.Journal().Close()
	if err != nil {
		return nil, fmt.Errorf("recovered run: %w", err)
	}
	got, err := takeMatrixSnapshot(fx, rs.Result)
	if err != nil {
		return nil, err
	}
	cse.Diffs = append(cse.Diffs, diffMatrixSnapshots(want, got)...)
	return cse, nil
}
