package dsnaudit

import (
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/obs"
)

// Verifier is the scheduler's pluggable settlement strategy: at the end of
// each tick, every contract whose proof landed in that block is handed over
// for the phase-2 verdict. height is the block height the settlement is
// pinned to (the proofs' inclusion block), so the next audit trigger arms
// identically whether settlement runs inline or overlapped with the next
// tick's proof generation; workers bounds the verification goroutines
// (<= 0 selects GOMAXPROCS). Implementations must return exactly one result
// per contract, in input order, and must not read the live chain head —
// the scheduler keeps mining while a settlement is in flight.
type Verifier interface {
	// SettleBlock settles every contract in cs (all in the SETTLE phase).
	SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error)
}

// BatchVerifier is the default strategy: the whole block settles through a
// single contract.SettleBatchAt call — one shared final exponentiation
// across every proof in the block and 2K+1 Miller loops for its K distinct
// owner keys, each fed by one multi-scalar multiplication over the block,
// with the loops, those sums and the per-item challenge expansion fanned out
// across the workers, bisecting on failure so one cheater among N honest
// providers is individually slashed while the rest settle as passed.
type BatchVerifier struct {
	// Stats, when non-nil, accumulates the pairing workload across blocks
	// (final exponentiations and Miller loops), making the amortization
	// measurable. Instrument re-exports it as the dsn_settle_* metric
	// family; the field stays the direct accessor either way.
	Stats *core.BatchStats

	obs *settleObs
}

// settleObs holds the settlement metric series (nil = uninstrumented).
type settleObs struct {
	blocks    *obs.Counter
	rounds    *obs.Counter
	miller    *obs.Counter
	finalExps *obs.Counter
	gas       *obs.Counter
	batchSize *obs.Histogram
	bisect    *obs.Histogram
}

// Instrument registers the dsn_settle_* metric family on reg and makes
// SettleBlock account each block's pairing work, settle-gas and
// bisection depth. Allocates Stats when unset so the deltas have a
// source; the BatchVerifier must not be shared across schedulers after
// instrumenting (one settlement in flight at a time is assumed, as the
// scheduler pipeline guarantees).
func (v *BatchVerifier) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	if v.Stats == nil {
		v.Stats = &core.BatchStats{}
	}
	v.obs = &settleObs{
		blocks:    reg.Counter("dsn_settle_blocks_total", "blocks settled"),
		rounds:    reg.Counter("dsn_settle_rounds_total", "engagement rounds settled"),
		miller:    reg.Counter("dsn_settle_miller_loops_total", "Miller loops performed by settlement"),
		finalExps: reg.Counter("dsn_settle_final_exps_total", "final exponentiations performed by settlement"),
		gas:       reg.Counter("dsn_settle_gas_total", "settlement gas spent on chain"),
		batchSize: reg.Histogram("dsn_settle_batch_size", "contracts per settled block", obs.ExpBuckets(1, 2, 16)),
		bisect:    reg.Histogram("dsn_settle_bisect_depth", "extra final exponentiations spent bisecting cheaters out of a block", obs.ExpBuckets(1, 2, 12)),
	}
}

// SettleBlock settles the block with one batched verification.
func (v *BatchVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	o := v.obs
	if o == nil {
		return contract.SettleBatchAt(cs, height, workers, v.Stats), nil
	}
	before := *v.Stats
	res := contract.SettleBatchAt(cs, height, workers, v.Stats)
	o.blocks.Inc()
	o.batchSize.Observe(float64(len(cs)))
	o.miller.Add(uint64(v.Stats.MillerLoops - before.MillerLoops))
	o.finalExps.Add(uint64(v.Stats.FinalExps - before.FinalExps))
	// An all-honest block costs exactly one shared final exponentiation;
	// anything beyond that is the bisection isolating cheaters.
	if extra := v.Stats.FinalExps - before.FinalExps - 1; extra > 0 {
		o.bisect.Observe(float64(extra))
	} else {
		o.bisect.Observe(0)
	}
	var gas, settled uint64
	for i, r := range res {
		if r.Err != nil {
			continue
		}
		settled++
		if recs := cs[i].Records(); len(recs) > 0 {
			gas += recs[len(recs)-1].SettleGas
		}
	}
	o.rounds.Add(settled)
	o.gas.Add(gas)
	return res, nil
}

// PerProofVerifier settles each contract with its own inline verification —
// one final exponentiation per proof, serially. It exists for debugging and
// parity tests against the batched path; production settlements should
// batch.
type PerProofVerifier struct{}

// SettleBlock settles each contract independently.
func (PerProofVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	out := make([]contract.SettleResult, len(cs))
	for i, k := range cs {
		passed, err := k.SettleAt(height)
		out[i] = contract.SettleResult{Addr: k.Addr, Passed: passed, Err: err}
	}
	return out, nil
}
