package sched

import (
	"repro/internal/contract"
)

// trustingVerifier settles every pending proof as passed without any
// pairing work, via contract.SettleVerdictsAt with no verification gas. All
// the on-chain consequences of a passed round — the block's settlement
// transaction, escrow payment, trigger re-arm, round accounting, expiry —
// still execute, so funds movement and contract lifecycles are real; only
// the cryptographic verdict is assumed.
//
// It exists for scale harnesses: the soak experiment drives hundreds of
// thousands of settlements per run, and what it measures is the scheduler —
// wake-queue behavior, memory, tick latency — not the pairing throughput
// the cryptographic benchmarks already cover. It is NOT part of the audit
// protocol and must never settle contracts whose verdicts matter.
type trustingVerifier struct{}

// SettleBlock settles every contract as passed at the sealed height.
func (trustingVerifier) SettleBlock(cs []*contract.Contract, height uint64, workers int) ([]contract.SettleResult, error) {
	vs := make([]contract.Verdict, len(cs))
	for i, k := range cs {
		vs[i] = contract.Verdict{Contract: k, Passed: true}
	}
	return contract.SettleVerdictsAt(vs, height), nil
}
