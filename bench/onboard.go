package main

import (
	"context"
	"fmt"

	"repro/dsnaudit"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/obs"
)

// onboardSpec sizes the owner's write path: no audit rounds, one file after
// another through Outsource (seal, erasure-code, DHT placement, core.Setup)
// and EngageWith over TCP (the bulk AcceptAuditData frame, provider-side
// authenticator validation, deploy/negotiate/ack/freeze). Closed loop of one.
type onboardSpec struct {
	filesPerSec float64 // files per requested second of measuring
	fileBytes   int
	s           int
	k           int
	host        hostShares
}

// warmupFile is the index of the first set-up file, clear of the timed ones.
const warmupFile = 1 << 16

// oracleK is the challenge size of the oracle's one fresh proof per file:
// small, because the check is that the shipped audit state proves at all.
const oracleK = 8

func (o onboardSpec) files(seconds float64) int {
	if n := int(o.filesPerSec*seconds + 0.5); n > 3 {
		return n
	}
	return 3
}

func runOnboard(cfg runConfig, spec onboardSpec) (*result, error) {
	res := newResult()
	var tr *tracer
	var reg *obs.Registry
	if cfg.trace {
		tr = newTracer()
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.deadline)
	defer cancel()

	// Set-up here is keys, chain, servers and one warm-up file, so lazy
	// initialisation and connection set-up are paid before the timed phase
	// and show in setup_s; the files themselves are the work.
	terms := dsnaudit.DefaultTerms(2)
	terms.ChallengeSize = spec.k
	rep := 0
	w, setups, err := rebuildWorld(spec.host.setup, setupReps, func() (*world, error) {
		w, err := newWorld(cfg.seed, spec.s, reg)
		if err != nil {
			return nil, err
		}
		rep++
		if _, _, err := w.engage(ctx, cfg.seed, warmupFile+rep, spec.fileBytes, terms); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	defer w.close()
	res.setN("setup_s", median(setups), len(setups))

	files := spec.files(cfg.seconds)
	engs := make([]*dsnaudit.Engagement, 0, files)
	var outsource, engage, accept []float64
	fundsBefore := w.funds()
	w.mineAll()
	gas0, bytes0, height0 := w.net.Chain.TotalGas(), w.net.Chain.TotalBytes(), w.net.Chain.Height()
	var mem *memMeter
	if cfg.trace {
		mem = startMemMeter()
	}
	timed := phase{share: spec.host.timed}
	timed.begin()
	for i := 0; i < files; i++ {
		if timed.due() {
			timed.sample()
		}
		res.attempted++
		eng, t, err := w.engage(ctx, cfg.seed, i, spec.fileBytes, terms)
		if err != nil {
			res.fail("file %d: %v", i, err)
			continue
		}
		w.net.Chain.MineBlock()
		engs = append(engs, eng)
		timed.op(ms(t.end.Sub(t.start)))
		if tr != nil {
			outsource = append(outsource, ms(t.outsourced.Sub(t.start)))
			engage = append(engage, ms(t.end.Sub(t.outsourced)))
			accept = append(accept, ms(t.acceptEnd.Sub(t.acceptStart)))
			root := tr.add("onboard", 0, nil, i, 0, t.start, t.end)
			tr.add("dsnaudit.outsource", root, nil, i, 0, t.start, t.outsourced)
			e := tr.add("dsnaudit.engage", root, nil, i, 0, t.outsourced, t.end)
			tr.add("remote.accept", e, nil, i, 0, t.acceptStart, t.acceptEnd)
		}
	}
	timed.end()
	var md memDelta
	if cfg.trace {
		md = mem.stop()
	}
	w.mineAll()
	if timed.ops == 0 {
		return nil, fmt.Errorf("no file onboarded")
	}
	n := float64(timed.ops)
	timed.into(res)
	res.set("gas_per_op", float64(w.net.Chain.TotalGas()-gas0)/n)
	res.set("chain_bytes_per_op", float64(w.net.Chain.TotalBytes()-bytes0)/n)

	// Oracle: every contract is frozen into AUDIT with deposits locked, the
	// provider node holds its prover, and a fresh proof from it verifies.
	if got := w.funds(); got.Cmp(fundsBefore) != 0 {
		res.fail("funds not conserved: %s before, %s after", fundsBefore, got)
	}
	for i, eng := range engs {
		if st := eng.Contract.State(); st != contract.StateAudit {
			res.fail("file %d: contract is %s, want AUDIT", i, st)
			continue
		}
		prover, ok := w.nodeFor(i).Prover(eng.ID())
		if !ok {
			res.fail("file %d: provider holds no prover", i)
			continue
		}
		ch, err := core.NewChallenge(oracleK, nil)
		if err != nil {
			return nil, err
		}
		proof, err := prover.ProvePrivate(ch, nil, nil)
		if err != nil {
			res.fail("file %d: prove: %v", i, err)
			continue
		}
		if !core.VerifyPrivate(eng.Owner.AuditSK.Pub, prover.File.NumChunks(), ch, proof) {
			res.fail("file %d: fresh proof does not verify", i)
		}
	}
	if !cfg.trace {
		return res, nil
	}

	spans := tr.snapshot()
	if err := writeJSONL(cfg.tracePath, spans); err != nil {
		return nil, err
	}
	res.setN("dsnaudit.outsource_ms_p50", median(outsource), len(outsource))
	res.setN("dsnaudit.engage_ms_p50", median(engage), len(engage))
	res.setN("remote.accept_ms_p50", median(accept), len(accept))
	res.set("chain.blocks", float64(w.net.Chain.Height()-height0))
	res.set("chain.blocks_per_round", float64(w.net.Chain.Height()-height0)/n)
	setRemoteCounts(res, reg)
	setProc(res, md, n)
	p, err := runProbes(probeSpec{s: spec.s, fileBytes: spec.fileBytes, k: spec.k}, cfg)
	if err != nil {
		return nil, err
	}
	p.into(res)

	self := selfByName(spans)
	per := func(name string) float64 { return ms(self[name]) / n }
	total := per("onboard") + per("dsnaudit.outsource") + per("dsnaudit.engage") + per("remote.accept")
	m := res.metrics
	mibPerFile := float64(spec.fileBytes) / (1 << 20)
	setupMs := 1000 * mibPerFile / m["core.setup_mib_per_s"]
	prepareMs := 1000 * mibPerFile / m["storage.prepare_mib_per_s"]
	cpuPer := ms(timed.cpu) / n
	attributed := setupMs + prepareMs + m["core.verify_auths_ms"] + m["wire.accept_frame_ms"]
	res.set("trace.unattributed_cpu_pct", 100*(cpuPer-attributed)/cpuPer)
	out := fmt.Sprintf("budget, ms per onboarded file (%d files)\n", timed.ops)
	line := func(group, name string, v, of float64) {
		out += fmt.Sprintf("  %-8s %-36s %10.3f  %5.1f%%\n", group, name, v, 100*v/of)
	}
	line("latency", "onboard (outsource start -> frozen)", total, total)
	line("", "dsnaudit.outsource", per("dsnaudit.outsource"), total)
	line("", "dsnaudit.engage (self: chain, contract)", per("dsnaudit.engage"), total)
	line("", "remote.accept", per("remote.accept"), total)
	line("", "onboard self (unattributed)", per("onboard"), total)
	line("cpu", "measured (getrusage)", cpuPer, cpuPer)
	line("", "core.setup (probe, 1 worker)", setupMs, cpuPer)
	line("", "storage.prepare (probe)", prepareMs, cpuPer)
	line("", "core.verify_auths, 8 samples (probe)", m["core.verify_auths_ms"], cpuPer)
	line("", "wire.accept_frame (probe)", m["wire.accept_frame_ms"], cpuPer)
	line("", "unattributed", cpuPer-attributed, cpuPer)
	res.budget = out
	return res, nil
}
