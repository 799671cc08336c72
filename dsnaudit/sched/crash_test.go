package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/dsnaudit"
	"repro/internal/beacon"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/obs"
)

// The crash matrix is the durability layer's behavioral contract: kill a
// journaled scheduler at an effect — every mutating call or sync its journal
// makes, and every call through a seam where the chain moves (a Respond, a
// SettleBlock, an OnBlock hook), the method of ALICE (Pillai et al., OSDI
// 2014) — recover it from disk with Recover, drive the recovered run to
// completion, and demand the outcome — every engagement's rounds and
// terminal state, the final chain height, total gas within proof-entropy
// tolerance, every balance, every reputation score — identical to an
// uninterrupted run of the same fixture.

// crashFixture mirrors the scheduler parity fixture: a deterministic
// many-owner deployment exercising every outcome class — one engagement per
// holder of a shared file (ten), an extra honest engagement, a cheater
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
	// One contract per distinct holder of the shared file.
	var set []*dsnaudit.Engagement
	seen := make(map[string]bool)
	for _, holder := range sf.Holders {
		if seen[holder.Name] {
			continue
		}
		seen[holder.Name] = true
		eng, err := alice.Engage(sf, holder, terms)
		if err != nil {
			return nil, err
		}
		set = append(set, eng)
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

	engs := append(set, engB, engC, engD)
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

// The matrix run's journal settings: a synced flush every other tick, a
// checkpoint every third and a two-record buffer, so every kind of write —
// write-through, buffer-full, barrier, checkpoint — recurs through the run.
// One prove worker makes the effect numbering, and each seam's, a function
// of the seed.
const (
	matrixSeed       = "crash-matrix"
	matrixRounds     = 3
	matrixCkptEvery  = 3
	matrixFlushEvery = 2
	matrixFlushBytes = 96
)

func matrixOptions(shards int) []Option {
	return []Option{WithShards(shards), WithParallelism(2), WithWorkers(1),
		WithCheckpointEvery(matrixCkptEvery), WithJournalFlushEvery(matrixFlushEvery)}
}

// seamKinds are the chain seams, in the order cells and samples list them:
// the entry of a Respond, the entry of a SettleBlock and the return of its
// inner call, and an OnBlock hook.
var seamKinds = []string{"respond", "settle", "settled", "block"}

// seamCall is one recorded call through a chain seam.
type seamCall struct {
	addrs  []chain.Address
	height uint64
}

// chainSeams wraps the seams where a run moves the chain — every
// engagement's Responder, the Verifier and an OnBlock hook — records each
// call, numbered per seam, and can kill the run at one of them. A kill kills
// the faultFS and latches the journal's fault, so the pipeline stops at its
// next journalFault check. After any kill, at a file or a seam, every seam
// refuses without calling through: a dead process proves and settles
// nothing.
type chainSeams struct {
	chain *chain.Chain
	ffs   *faultFS
	jnl   *Journal
	// dies picks the call that kills: n numbers the calls of one seam.
	// nil never kills.
	dies func(seam string, n int) bool

	mu    sync.Mutex
	calls map[string][]seamCall
}

// at admits one call through seam at height h.
func (c *chainSeams) at(seam string, h uint64, addrs ...chain.Address) error {
	if c.ffs.killed() {
		return errInjected
	}
	c.mu.Lock()
	n := len(c.calls[seam])
	c.calls[seam] = append(c.calls[seam], seamCall{addrs: addrs, height: h})
	c.mu.Unlock()
	if c.dies != nil && c.dies(seam, n) {
		c.ffs.kill()
		c.jnl.fail(errInjected)
		return errInjected
	}
	return nil
}

func (c *chainSeams) recorded() map[string][]seamCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]seamCall, len(c.calls))
	for seam, calls := range c.calls {
		out[seam] = append([]seamCall(nil), calls...)
	}
	return out
}

// wrap puts the Respond seam in front of every fixture engagement's
// responder; the returned func puts the responders back.
func (c *chainSeams) wrap(fx *crashFixture) (restore func()) {
	inner := make([]dsnaudit.Responder, len(fx.engs))
	for i, e := range fx.engs {
		inner[i], e.Responder = e.Responder, seamResponder{c, e.Responder}
	}
	return func() {
		for i, e := range fx.engs {
			e.Responder = inner[i]
		}
	}
}

type seamResponder struct {
	seams *chainSeams
	inner dsnaudit.Responder
}

func (r seamResponder) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	if err := r.seams.at("respond", r.seams.chain.Height(), addr); err != nil {
		return nil, err
	}
	return r.inner.Respond(ctx, addr, ch)
}

type seamVerifier struct {
	seams *chainSeams
	inner dsnaudit.Verifier
}

func (v seamVerifier) SettleBlock(cs []*contract.Contract, h uint64, workers int) ([]contract.SettleResult, error) {
	addrs := make([]chain.Address, len(cs))
	for i, k := range cs {
		addrs[i] = k.Addr
	}
	if err := v.seams.at("settle", h, addrs...); err != nil {
		return nil, err
	}
	res, err := v.inner.SettleBlock(cs, h, workers)
	if serr := v.seams.at("settled", h, addrs...); serr != nil {
		// The verdicts are on-chain; the dead run records none of them.
		return nil, serr
	}
	return res, err
}

// crashCell is one matrix cell: a kill at file-system effect number effect
// (torn: after a torn prefix of that write), or at call n of a chain seam.
type crashCell struct {
	effect int
	torn   bool
	seam   string
	n      int
}

// String names the cell's subtest, so
// go test -run 'TestCrashMatrix/shards=4/effect-36-torn$' replays one cell.
func (c crashCell) String() string {
	switch {
	case c.seam != "":
		return fmt.Sprintf("%s-%d", c.seam, c.n)
	case c.torn:
		return fmt.Sprintf("effect-%d-torn", c.effect)
	}
	return fmt.Sprintf("effect-%d", c.effect)
}

// TestCrashMatrix kills the fixture at every file-system effect of its run
// (and tears every write) and at every call through a chain seam under
// shards=4, and at a seeded sample covering every effect and seam kind under
// shards=1; -short runs only a sample under shards=4. Each level passes its
// count to WithShards, which the scheduler ignores. A red cell names its
// effect or seam call; its subtest replays it alone.
func TestCrashMatrix(t *testing.T) {
	shardCounts, perKind := []int{1, 4}, 3
	if testing.Short() {
		shardCounts, perKind = []int{4}, 1
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			want := matrixBaseline(t, shards)
			effects, calls := recordMatrixRun(t, shards, want)
			var cells []crashCell
			if shards == 4 && !testing.Short() {
				for j, e := range effects {
					cells = append(cells, crashCell{effect: j})
					if e.op == "write" {
						cells = append(cells, crashCell{effect: j, torn: true})
					}
				}
				for _, seam := range seamKinds {
					for n := range calls[seam] {
						cells = append(cells, crashCell{seam: seam, n: n})
					}
				}
			} else {
				cells = sampleCells(effects, calls, perKind)
			}
			t.Logf("%d effects, %d cells", len(effects), len(cells))
			root := t.TempDir()
			for _, c := range cells {
				c := c
				t.Run(c.String(), func(t *testing.T) {
					t.Parallel() // each cell owns its fixture, chain and directory
					for _, d := range runCrashCell(t, filepath.Join(root, c.String()), shards, c, want) {
						if c.seam != "" {
							d += fmt.Sprintf(" (kill at %s %+v)", c.seam, calls[c.seam][c.n])
						} else {
							d += fmt.Sprintf(" (kill at %+v)", effects[c.effect])
						}
						t.Error(d)
					}
				})
			}
		})
	}
}

// sampleCells picks perKind effects of each kind the run made and perKind
// calls of each seam, with a fixed seed, and a torn cell beside each write
// it picks; then every effect of opening the fresh journal — those before
// its first log write — that the draw missed, since a crash there leaves
// the directory half made.
func sampleCells(effects []effect, calls map[string][]seamCall, perKind int) []crashCell {
	rng := rand.New(rand.NewSource(1))
	pick := func(idx []int) []int {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		idx = idx[:min(perKind, len(idx))]
		sort.Ints(idx)
		return idx
	}
	byOp := make(map[string][]int)
	for j, e := range effects {
		byOp[e.op] = append(byOp[e.op], j)
	}
	var cells []crashCell
	for _, op := range []string{"mkdir", "create", "write", "sync", "truncate", "rename", "remove"} {
		for _, j := range pick(byOp[op]) {
			cells = append(cells, crashCell{effect: j})
			if op == "write" {
				cells = append(cells, crashCell{effect: j, torn: true})
			}
		}
	}
	for _, seam := range seamKinds {
		idx := make([]int, len(calls[seam]))
		for n := range idx {
			idx[n] = n
		}
		for _, n := range pick(idx) {
			cells = append(cells, crashCell{seam: seam, n: n})
		}
	}
	picked := make(map[crashCell]bool, len(cells))
	for _, c := range cells {
		picked[c] = true
	}
	for j, e := range effects {
		if e.op == "write" && e.file == journalLogName {
			break
		}
		for _, c := range []crashCell{{effect: j}, {effect: j, torn: true}} {
			if !picked[c] && (!c.torn || e.op == "write") {
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// matrixBaseline runs the fixture uninterrupted, with no journal.
func matrixBaseline(t *testing.T, shards int) *matrixSnapshot {
	t.Helper()
	fx, err := buildCrashFixture(matrixSeed, matrixRounds)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(fx.net, matrixOptions(shards)...)
	for _, e := range fx.engs {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, err := takeMatrixSnapshot(fx, s.Result)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// recordMatrixRun runs the fixture journaled through a faultFS and seams
// that never fail, requires the outcome to equal the baseline — journaling
// and the seams are behavior-neutral — and returns the effects and seam
// calls it recorded: the cells.
func recordMatrixRun(t *testing.T, shards int, want *matrixSnapshot) ([]effect, map[string][]seamCall) {
	t.Helper()
	dir := t.TempDir()
	ffs := &faultFS{root: dir}
	fx, err := buildCrashFixture(matrixSeed, matrixRounds)
	if err != nil {
		t.Fatal(err)
	}
	seams := &chainSeams{ffs: ffs}
	s, err := journaledRun(ffs, dir, shards, fx, seams)
	if err != nil {
		t.Fatal(err)
	}
	got, err := takeMatrixSnapshot(fx, s.Result)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffMatrixSnapshots(want, got) {
		t.Errorf("journaled run: %s", d)
	}
	return ffs.recorded(), seams.recorded()
}

// journaledRun opens a journal in dir through fs, adds the fixture and runs
// it with its chain seams behind seams. The journal is closed and the
// fixture's responders restored on return.
func journaledRun(fs fsys, dir string, shards int, fx *crashFixture, seams *chainSeams) (*Scheduler, error) {
	jnl, err := openJournal(fs, dir)
	if err != nil {
		return nil, err
	}
	jnl.flushBytes = matrixFlushBytes
	seams.chain, seams.jnl, seams.calls = fx.net.Chain, jnl, make(map[string][]seamCall)
	defer seams.wrap(fx)()
	s := NewScheduler(fx.net, append(matrixOptions(shards),
		WithJournal(jnl), WithVerifier(seamVerifier{seams, &dsnaudit.BatchVerifier{}}))...)
	s.OnBlock(func(h uint64) { seams.at("block", h) })
	for _, e := range fx.engs {
		if err = s.Add(e); err != nil {
			break
		}
	}
	if err == nil {
		err = s.Run(context.Background())
	}
	if cerr := jnl.Close(); err == nil {
		err = cerr
	}
	return s, err
}

// runCrashCell runs one cell: a fresh fixture journaled through a faultFS
// killed at the cell, Recover on the bytes the kill left, and the recovered
// run driven to completion. It returns every mismatch against the
// uninterrupted run; a kill that never fired is one.
func runCrashCell(t *testing.T, dir string, shards int, c crashCell, want *matrixSnapshot) []string {
	fx, err := buildCrashFixture(matrixSeed, matrixRounds)
	if err != nil {
		t.Fatal(err)
	}
	ffs := &faultFS{root: dir, torn: c.torn}
	seams := &chainSeams{ffs: ffs}
	if c.seam == "" {
		ffs.dies = func(i int, _ effect, _ []byte) bool { return i == c.effect }
	} else {
		seams.dies = func(seam string, n int) bool { return seam == c.seam && n == c.n }
	}
	_, err = journaledRun(ffs, dir, shards, fx, seams)
	switch {
	case err == nil:
		return []string{"the kill never fired: the run completed"}
	case !ffs.killed():
		return []string{fmt.Sprintf("the run failed before its kill: %v", err)}
	}

	// The killed instance is dead; everything below is disk + chain.
	resolve := make(map[chain.Address]*dsnaudit.Engagement, len(fx.engs))
	for _, e := range fx.engs {
		resolve[e.ID()] = e
	}
	chainMetrics := obs.NewRegistry()
	fx.net.Chain.Instrument(chainMetrics)
	historyBefore := historyReads(chainMetrics)
	rs, rrep, err := Recover(dir, fx.net, func(addr chain.Address) (*dsnaudit.Engagement, error) {
		e, ok := resolve[addr]
		if !ok {
			return nil, fmt.Errorf("unknown engagement %s", addr)
		}
		return e, nil
	}, matrixOptions(shards)...)
	if err != nil {
		return []string{fmt.Sprintf("recover: %v", err)}
	}
	rs.journal.flushBytes = matrixFlushBytes
	var diffs []string
	if d := historyReads(chainMetrics) - historyBefore; d != 0 {
		diffs = append(diffs, fmt.Sprintf("recovery read chain history %v times, want 0 (no-rescan pin)", d))
	}
	if rrep.ResolverCalls != rrep.Entries {
		diffs = append(diffs, fmt.Sprintf("resolver called %d times for %d entries, want exactly one each", rrep.ResolverCalls, rrep.Entries))
	}
	// A registration the kill lost was never acknowledged — its Add failed
	// or never ran — so the owner adds the engagement again.
	for _, e := range fx.engs {
		if _, ok := rs.Result(e.ID()); !ok {
			if err := rs.Add(e); err != nil {
				return append(diffs, fmt.Sprintf("re-add %s: %v", e.ID(), err))
			}
		}
	}
	err = rs.Run(context.Background())
	if cerr := rs.Journal().Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return append(diffs, fmt.Sprintf("recovered run: %v", err))
	}
	got, err := takeMatrixSnapshot(fx, rs.Result)
	if err != nil {
		return append(diffs, err.Error())
	}
	return append(diffs, diffMatrixSnapshots(want, got)...)
}

// TestCheckpointBytesDeterministic: a checkpoint is a function of the
// scheduler's state, not of map order — two runs of the fixture write
// byte-identical checkpoint files.
func TestCheckpointBytesDeterministic(t *testing.T) {
	run := func() []byte {
		t.Helper()
		fx, err := buildCrashFixture("checkpoint-bytes", 3)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		jnl, err := OpenJournal(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(fx.net, WithParallelism(2), WithJournal(jnl), WithCheckpointEvery(3))
		for _, e := range fx.engs {
			if err := s.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, checkpointName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("two runs wrote different checkpoints (%d and %d bytes)", len(a), len(b))
	}
}

// TestFaultFSFidelity: the recording fake changes nothing — the matrix
// fixture journaled through os and through faultFS leaves byte-identical
// meta, log and checkpoint, and equal JournalStats — and two fake
// runs record the same effects and the same calls through each chain seam,
// so an effect or seam call number names the same call in every run and a
// red cell replays.
func TestFaultFSFidelity(t *testing.T) {
	const shards = 4
	run := func(fake bool) (map[string][]byte, JournalStats, []effect, map[string][]seamCall) {
		t.Helper()
		fx, err := buildCrashFixture(matrixSeed, matrixRounds)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		ffs := &faultFS{root: dir}
		var fs fsys = osFS{}
		if fake {
			fs = ffs
		}
		seams := &chainSeams{ffs: ffs}
		s, err := journaledRun(fs, dir, shards, fx, seams)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte)
		for _, name := range []string{journalMetaName, journalLogName, checkpointName} {
			if files[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		return files, s.Journal().Stats(), ffs.recorded(), seams.recorded()
	}
	osFiles, osStats, _, _ := run(false)
	fakeFiles, fakeStats, effects, calls := run(true)
	for name, want := range osFiles {
		if got := fakeFiles[name]; !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes through faultFS, %d through os", name, len(got), len(want))
		}
	}
	if fakeStats != osStats {
		t.Errorf("JournalStats through faultFS %+v, through os %+v", fakeStats, osStats)
	}
	_, _, again, callsAgain := run(true)
	if len(effects) == 0 || !reflect.DeepEqual(effects, again) {
		t.Errorf("two fake runs recorded different effects (%d and %d)", len(effects), len(again))
	}
	for _, seam := range seamKinds {
		if len(calls[seam]) == 0 || !reflect.DeepEqual(calls[seam], callsAgain[seam]) {
			t.Errorf("two fake runs recorded different %s calls (%d and %d)", seam, len(calls[seam]), len(callsAgain[seam]))
		}
	}
}

// historyReads is the chain's dsn_chain_history_reads_total on reg.
func historyReads(reg *obs.Registry) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == "dsn_chain_history_reads_total" {
			return s.Value
		}
	}
	return -1
}

// Result returns the accounting for one engagement, as Results holds it.
func (s *Scheduler) Result(id chain.Address) (dsnaudit.Result, bool) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	en, ok := s.store.byID[id]
	if !ok {
		return dsnaudit.Result{}, false
	}
	return en.result, true
}
