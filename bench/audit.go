package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/dsnaudit"
	"repro/dsnaudit/sched"
	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/obs"
)

// auditSpec sizes a real-path audit workload: engagements built through the
// owner pipeline, proved over loopback TCP, settled by the journaled
// sched.Scheduler through the real BatchVerifier.
type auditSpec struct {
	engagements  int
	s            int     // sectors per chunk
	fileBytes    int     // plaintext bytes per file
	k            int     // challenged chunks per round
	roundsPerSec float64 // rounds per engagement per requested second of measuring
	stagger      int     // RoundInterval = 2 + i mod stagger
	cheaters     bool    // one engagement in four answers the wrong challenge from a seeded round on
	host         hostShares
}

// rounds is the contract length at the requested run time: the work is fixed
// by (--seconds, --seed), not by how fast this machine is, so counts repeat.
func (a auditSpec) rounds(seconds float64) int {
	if r := int(a.roundsPerSec*seconds + 0.5); r > 2 {
		return r
	}
	return 2
}

// cheatPlan returns, per engagement, the 0-based round from which it cheats,
// or -1 for an honest one. Which engagements cheat is seeded; how many do in
// each interval class, and at which rounds, is not, so every seed does the
// same amount of work.
func (a auditSpec) cheatPlan(seed int64, rounds int) []int {
	plan := make([]int, a.engagements)
	for i := range plan {
		plan[i] = -1
	}
	if !a.cheaters {
		return plan
	}
	rng := rand.New(rand.NewSource(seed))
	total := a.engagements / 4
	n := 0
	for class := 0; class < a.stagger; class++ {
		var members []int
		for i := class; i < a.engagements; i += a.stagger {
			members = append(members, i)
		}
		rng.Shuffle(len(members), func(x, y int) { members[x], members[y] = members[y], members[x] })
		for _, i := range members[:len(members)/4] {
			// Cheat rounds spread evenly over [1, rounds-1]: never the first
			// round, so every cheater is paid at least once before its slash.
			plan[i] = 1 + n*(rounds-1)/total
			n++
		}
	}
	return plan
}

// roundRec is the state of one engagement's round in flight.
type roundRec struct {
	dispatched, responded time.Time
}

// auditRecorder sits on the two seams the scheduler exposes — the Responder
// and the Verifier — and keeps what the end-to-end metrics and the oracle
// need. Untraced it keeps two timestamps per round (dispatch, verdict).
type auditRecorder struct {
	tr    *tracer // nil untraced
	plan  []int
	index map[chain.Address]int

	mu       sync.Mutex
	open     []roundRec
	settled  []int     // rounds judged, per engagement
	respond  []float64 // traced only, like the three below
	wait     []float64
	blockMs  []float64
	batch    []float64
	finished map[chain.Address]dsnaudit.Result
	res      *result
	timed    *phase
}

// spanResponder times one engagement's Respond calls.
type spanResponder struct {
	inner dsnaudit.Responder
	rec   *auditRecorder
	eng   int
}

func (r *spanResponder) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	start := time.Now()
	proof, err := r.inner.Respond(ctx, addr, ch)
	rec := roundRec{dispatched: start}
	if r.rec.tr != nil {
		rec.responded = time.Now()
	}
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	r.rec.open[r.eng] = rec
	switch {
	case err != nil:
		r.rec.res.attempted++
		r.rec.res.fail("engagement %d: respond: %v", r.eng, err)
	case len(proof) != core.PrivateProofSize:
		r.rec.res.fail("engagement %d: proof is %d bytes, want %d", r.eng, len(proof), core.PrivateProofSize)
	}
	return proof, err
}

// wrongChallenge is the cheater: from round `from` on it has the real
// provider prove a different challenge, so the proof parses, is 288 bytes,
// and fails the pairing check.
type wrongChallenge struct {
	inner dsnaudit.Responder
	from  int
	calls int // rounds answered so far; one Respond per round on these workloads
}

func (c *wrongChallenge) Respond(ctx context.Context, addr chain.Address, ch *core.Challenge) ([]byte, error) {
	round := c.calls
	c.calls++
	if round >= c.from {
		other := *ch
		other.C1[0] ^= 0xff
		ch = &other
	}
	return c.inner.Respond(ctx, addr, ch)
}

// spanVerifier times SettleBlock around the real BatchVerifier and judges
// every verdict against the plan.
type spanVerifier struct {
	inner *dsnaudit.BatchVerifier
	rec   *auditRecorder
	busy  sync.Mutex // held while a block is being settled and judged
}

func (v *spanVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	v.busy.Lock()
	defer v.busy.Unlock()
	rounds := make([]int, len(cs))
	for i, c := range cs {
		rounds[i] = c.Round()
	}
	start := time.Now()
	res, err := v.inner.SettleBlock(cs, height, workers)
	end := time.Now()
	v.rec.judged(cs, rounds, res, err, start, end)
	return res, err
}

func (a *auditRecorder) judged(cs []*contract.Contract, rounds []int, res []contract.SettleResult, err error, start, end time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		a.res.attempted += len(cs)
		a.res.failed += len(cs)
		a.res.problems = append(a.res.problems, fmt.Sprintf("settle block of %d: %v", len(cs), err))
		return
	}
	var blockID int64
	if a.tr != nil {
		blockID = a.tr.add("dsnaudit.settle_block", 0, nil, -1, len(cs), start, end)
		a.blockMs = append(a.blockMs, ms(end.Sub(start)))
		a.batch = append(a.batch, float64(len(cs)))
	}
	for i, c := range cs {
		e, ok := a.index[c.Addr]
		if !ok {
			continue
		}
		a.res.attempted++
		a.settled[e]++
		open := a.open[e]
		a.timed.op(ms(end.Sub(open.dispatched)))
		wantPass := a.plan[e] < 0 || rounds[i] < a.plan[e]
		switch {
		case res[i].Err != nil:
			a.res.fail("engagement %d round %d: settle: %v", e, rounds[i], res[i].Err)
		case res[i].Passed != wantPass:
			a.res.fail("engagement %d round %d: passed=%v, want %v", e, rounds[i], res[i].Passed, wantPass)
		}
		if a.tr != nil {
			a.respond = append(a.respond, ms(open.responded.Sub(open.dispatched)))
			a.wait = append(a.wait, ms(start.Sub(open.responded)))
			root := a.tr.reserve()
			a.tr.add("remote.respond", root, nil, e, rounds[i], open.dispatched, open.responded)
			a.tr.add("dsnaudit.settle_wait", root, nil, e, rounds[i], open.responded, start)
			a.tr.addWithID(root, "round", 0, []int64{blockID}, e, rounds[i], open.dispatched, end)
		}
	}
}

// runAudit builds the fleet, runs it to completion and reports.
func runAudit(cfg runConfig, spec auditSpec) (*result, error) {
	plan := spec.cheatPlan(cfg.seed, spec.rounds(cfg.seconds))
	return runAuditPlanned(cfg, spec, plan, plan)
}

// runAuditPlanned is runAudit with the cheater schedule made explicit: plan
// is what the oracle expects, cheats is what the responders do. They differ
// only in the self-test, which checks that the oracle notices.
func runAuditPlanned(cfg runConfig, spec auditSpec, plan, cheats []int) (*result, error) {
	res := newResult()
	var tr *tracer
	var reg *obs.Registry
	if cfg.trace {
		tr = newTracer()
		reg = obs.NewRegistry()
	}
	rounds := spec.rounds(cfg.seconds)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.deadline)
	defer cancel()

	// Set-up, timed in parts so one run yields several samples of each part,
	// every part at the reference speed: the fixed part is built fixedReps
	// times, the fleet in setupReps batches.
	w, fixed, err := rebuildWorld(spec.host.setup, fixedReps, func() (*world, error) { return newWorld(cfg.seed, spec.s, reg) })
	if err != nil {
		return nil, err
	}
	defer w.close()
	engs := make([]*dsnaudit.Engagement, spec.engagements)
	var acceptMs []float64
	batchSecs, err := timedAtRef(spec.host.setup, setupReps, func(b int) error {
		for i := b * spec.engagements / setupReps; i < (b+1)*spec.engagements/setupReps; i++ {
			terms := dsnaudit.DefaultTerms(rounds)
			terms.ChallengeSize = spec.k
			terms.RoundInterval = 2 + uint64(i%spec.stagger)
			eng, t, err := w.engage(ctx, cfg.seed, i, spec.fileBytes, terms)
			if err != nil {
				return err
			}
			engs[i] = eng
			acceptMs = append(acceptMs, ms(t.acceptEnd.Sub(t.acceptStart)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var perEng []float64
	for b, secs := range batchSecs {
		if n := (b+1)*spec.engagements/setupReps - b*spec.engagements/setupReps; n > 0 {
			perEng = append(perEng, secs/float64(n))
		}
	}

	rec := &auditRecorder{
		tr: tr, plan: plan, res: res, timed: &phase{share: spec.host.timed},
		index:    make(map[chain.Address]int, len(engs)),
		open:     make([]roundRec, len(engs)),
		settled:  make([]int, len(engs)),
		finished: make(map[chain.Address]dsnaudit.Result, len(engs)),
	}
	verifier := &dsnaudit.BatchVerifier{}
	if cfg.trace {
		verifier.Instrument(reg)
	}
	jdir, err := os.MkdirTemp(cfg.tmp, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jdir)
	jnl, err := sched.OpenJournal(jdir, journalShard)
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	settle := &spanVerifier{inner: verifier, rec: rec}
	var s *sched.Scheduler
	schedSetup, err := timedAtRef(spec.host.setup, 1, func(int) error {
		s = sched.NewScheduler(w.net,
			sched.WithWorkers(cores), sched.WithParallelism(cores), sched.WithShards(schedShards),
			sched.WithJournal(jnl), sched.WithJournalFlushEvery(flushEvery), sched.WithCheckpointEvery(ckptEvery),
			sched.WithVerifier(settle),
			sched.WithMetrics(reg))
		s.OnOutcome(func(o dsnaudit.Outcome) {
			rec.mu.Lock()
			rec.finished[o.ID] = o.Result
			rec.mu.Unlock()
		})
		for i, eng := range engs {
			rec.index[eng.ID()] = i
			inner := eng.Responder
			if cheats[i] >= 0 {
				inner = &wrongChallenge{inner: inner, from: cheats[i]}
			}
			eng.Responder = &spanResponder{inner: inner, rec: rec, eng: i}
			if err := s.Add(eng); err != nil {
				return err
			}
		}
		w.mineAll()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.setN("setup_s", median(fixed)+float64(spec.engagements)*median(perEng)+schedSetup[0], len(perEng))

	// Every tick starts here, after the previous tick's proofs are in and
	// before this tick's are asked for. A traced run takes the interval between
	// two ticks as the earlier one's duration, counted when that tick woke
	// something. When the last kernel sample is old enough, the hook waits for
	// the settlement still in flight and takes another: no round is open then,
	// so the sample lies in no round's latency.
	var tickMs []float64
	var last time.Time
	var lastWoken uint64
	s.OnBlock(func(uint64) {
		if cfg.trace {
			now := time.Now()
			woken := s.Stats().Woken
			if !last.IsZero() && woken > lastWoken {
				tickMs = append(tickMs, ms(now.Sub(last)))
			}
			last, lastWoken = now, woken
		}
		if rec.timed.due() {
			settle.busy.Lock()
			rec.timed.sample()
			settle.busy.Unlock()
			last = time.Now()
		}
	})

	fundsBefore := w.funds()
	gas0, bytes0, height0 := w.net.Chain.TotalGas(), w.net.Chain.TotalBytes(), w.net.Chain.Height()
	var mem *memMeter
	if cfg.trace {
		mem = startMemMeter()
	}
	rec.timed.begin()
	if err := s.Run(ctx); err != nil {
		return nil, fmt.Errorf("scheduler run: %w", err)
	}
	rec.timed.end()
	var md memDelta
	if cfg.trace {
		md = mem.stop()
	}
	w.mineAll()

	settled := rec.timed.ops
	if settled == 0 {
		return nil, fmt.Errorf("no round settled")
	}
	n := float64(settled)
	rec.timed.into(res)
	res.set("gas_per_op", float64(w.net.Chain.TotalGas()-gas0)/n)
	res.set("chain_bytes_per_op", float64(w.net.Chain.TotalBytes()-bytes0)/n)

	// The oracle's after-the-run half.
	if got := w.funds(); got.Cmp(fundsBefore) != 0 {
		res.fail("funds not conserved: %s before, %s after", fundsBefore, got)
	}
	jstats := jnl.Stats()
	if err := jnl.Close(); err != nil {
		return nil, err
	}
	view, err := sched.LoadJournalView(jdir)
	if err != nil {
		return nil, fmt.Errorf("journal view: %w", err)
	}
	witnessed := make(map[chain.Address]int, len(view.Entries))
	for _, e := range view.Entries {
		witnessed[e.Addr] = e.Rounds
	}
	for i, eng := range engs {
		want := dsnaudit.Result{Rounds: rounds, Passed: rounds, State: contract.StateExpired}
		if plan[i] >= 0 {
			want = dsnaudit.Result{Rounds: plan[i] + 1, Passed: plan[i], Failed: 1, State: contract.StateAborted}
		}
		if got, ok := rec.finished[eng.ID()]; !ok || got != want {
			res.fail("engagement %d: outcome %+v (reported=%v), want %+v", i, got, ok, want)
		}
		if rec.settled[i] != want.Rounds {
			res.fail("engagement %d: %d rounds judged, want %d", i, rec.settled[i], want.Rounds)
		}
		if witnessed[eng.ID()] != rec.settled[i] {
			res.fail("engagement %d: journal witnessed %d rounds, verifier judged %d", i, witnessed[eng.ID()], rec.settled[i])
		}
	}

	if !cfg.trace {
		return res, nil
	}
	spans := tr.snapshot()
	if err := writeJSONL(cfg.tracePath, spans); err != nil {
		return nil, err
	}
	stats := s.Stats()
	blocks := float64(len(rec.blockMs))
	res.setN("remote.respond_ms_p50", percentile(rec.respond, 50), settled)
	res.setN("remote.respond_ms_p95", percentile(rec.respond, 95), settled)
	res.set("remote.busy_s", sum(rec.respond)/1000)
	res.setN("remote.accept_ms_p50", median(acceptMs), len(acceptMs))
	res.setN("dsnaudit.settle_block_ms_p50", median(rec.blockMs), len(rec.blockMs))
	res.set("dsnaudit.settle_ms_per_round", sum(rec.blockMs)/n)
	res.set("dsnaudit.settle_batch_p50", median(rec.batch))
	res.setN("dsnaudit.settle_wait_ms_p50", median(rec.wait), settled)
	res.setN("sched.tick_ms_p50", percentile(tickMs, 50), len(tickMs))
	res.setN("sched.tick_ms_p90", percentile(tickMs, 90), len(tickMs))
	res.set("sched.ticks", float64(stats.Ticks))
	res.set("sched.due_per_tick", float64(stats.Challenges)/float64(len(tickMs)+1))
	res.set("sched.deferrals", float64(stats.Deferrals))
	res.set("sched.retries", float64(stats.Retries))
	res.set("sched.overloads", float64(stats.Overloads))
	setJournal(res, jstats, n)
	res.set("sched.checkpoint_ms_p50", checkpointP50(reg))
	res.set("chain.blocks", float64(w.net.Chain.Height()-height0))
	res.set("chain.blocks_per_round", float64(w.net.Chain.Height()-height0)/n)
	res.set("core.miller_per_proof", float64(verifier.Stats.MillerLoops)/n)
	res.set("core.finalexp_per_block", float64(verifier.Stats.FinalExps)/blocks)
	res.set("core.bisect_extra_finalexps", float64(verifier.Stats.FinalExps)-blocks)
	setRemoteCounts(res, reg)
	setProc(res, md, n)

	p, err := runProbes(probeSpec{s: spec.s, fileBytes: spec.fileBytes, k: spec.k}, cfg)
	if err != nil {
		return nil, err
	}
	p.into(res)
	res.budget = auditBudget(res, spans, n, ms(rec.timed.cpu)/n)
	return res, nil
}

func setJournal(res *result, j sched.JournalStats, rounds float64) {
	res.set("sched.journal_appends_per_round", float64(j.Appends)/rounds)
	res.set("sched.journal_bytes_per_round", float64(j.Bytes)/rounds)
	res.set("sched.journal_writes_per_round", float64(j.Writes)/rounds)
	res.set("sched.journal_fsyncs", float64(j.Fsyncs))
	res.set("sched.checkpoints", float64(j.Checkpoints))
}

func setProc(res *result, md memDelta, ops float64) {
	res.set("proc.alloc_mib_per_round", md.allocMiB/ops)
	res.set("proc.allocs_per_round", md.mallocs/ops)
	res.set("proc.gc_pause_ms", md.gcPauseMs)
	res.set("proc.gc_cycles", md.gcCycles)
	res.set("proc.heap_sys_mib", md.heapSysMiB)
}

// setRemoteCounts reads the remote layer's failure counters; all must be 0
// on these workloads.
func setRemoteCounts(res *result, reg *obs.Registry) {
	res.set("remote.retries", counterSum(reg, "dsn_remote_retries_total"))
	res.set("remote.overloads", counterSum(reg, "dsn_remote_overloads_total"))
	res.set("remote.frame_errors", counterSum(reg, "dsn_remote_frame_errors_total"))
}

// counterSum adds up every series of one metric family.
func counterSum(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// checkpointP50 reads the scheduler's checkpoint-duration histogram back from
// the registry, in ms (Histogram fetches a series that is already registered).
func checkpointP50(reg *obs.Registry) float64 {
	return 1000 * reg.Histogram("dsn_sched_checkpoint_seconds", "", nil).Quantile(0.5)
}

// auditBudget renders where a settled round's time went: the latency budget
// from span self times (respond + settle_wait + settle_block = round, by
// construction), and the CPU budget from probe unit costs times exact
// counts, with what neither explains left explicit.
func auditBudget(res *result, spans []span, rounds, cpuPerRound float64) string {
	self := selfByName(spans)
	var roundTotal, blockTotal time.Duration
	for _, s := range spans {
		switch s.Name {
		case "round":
			roundTotal += s.dur()
		case "dsnaudit.settle_block":
			// A block's span is shared by the rounds it judged: each of them
			// waited out the whole of it.
			blockTotal += s.dur() * time.Duration(s.Round)
		}
	}
	per := func(d time.Duration) float64 { return ms(d) / rounds }
	m := res.metrics
	prove := m["core.prove_ms_p50"]
	verify := m["core.verify_ms_per_proof_b1"]
	if b := m["dsnaudit.settle_batch_p50"]; b > 1 {
		// Interpolate the amortized cost between the two probed batch sizes.
		f := (1 - 1/b) / (1 - 1.0/32)
		if f > 1 {
			f = 1
		}
		verify += f * (m["core.verify_ms_per_proof_b32"] - verify)
	}
	wireMs := m["wire.round_frames_us"] / 1000
	attributed := prove + verify + wireMs
	unattributed := cpuPerRound - attributed
	res.set("trace.unattributed_cpu_pct", 100*unattributed/cpuPerRound)

	round := per(roundTotal)
	out := fmt.Sprintf("budget, ms per settled round (%d rounds)\n", int(rounds))
	line := func(group, name string, v, of float64) {
		out += fmt.Sprintf("  %-8s %-36s %10.3f  %5.1f%%\n", group, name, v, 100*v/of)
	}
	line("latency", "round (respond dispatched -> verdict)", round, round)
	line("", "remote.respond", per(self["remote.respond"]), round)
	line("", "  of which unloaded prove (probe)", prove, round)
	line("", "  of which unloaded wire+rtt (probe)", m["remote.overhead_ms"], round)
	line("", "dsnaudit.settle_wait", per(self["dsnaudit.settle_wait"]), round)
	line("", "dsnaudit.settle_block", per(blockTotal), round)
	line("", "round self (unattributed)", per(self["round"]), round)
	line("cpu", "measured (getrusage)", cpuPerRound, cpuPerRound)
	line("", "core.prove (probe x 1)", prove, cpuPerRound)
	line("", "core.verify at median batch (probe)", verify, cpuPerRound)
	line("", "wire.round_frames (probe)", wireMs, cpuPerRound)
	line("", "unattributed", unattributed, cpuPerRound)
	return out
}
