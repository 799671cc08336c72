package dsnaudit

import (
	"context"

	"repro/internal/contract"
)

// driveRounds is the test-only reference driver: it runs up to n audit rounds
// of e one after another, mining e's chain itself, and returns how many
// passed. Each round mines to the trigger, issues the challenge, has the
// responder answer and submits the proof; the block that includes it then
// settles the proof as a one-contract block through contract.SettleBatchAt,
// or, when no proof comes, the deadline lapses and the miss is settled.
// Either way the round is recorded. It stops after a failed or missed round
// and once the contract leaves AUDIT. It must not share a chain with a
// running sched.Scheduler.
func driveRounds(ctx context.Context, e *Engagement, n int) (int, error) {
	c := e.network.Chain
	mineTo := func(h uint64) {
		for c.Height() < h {
			c.MineBlock()
		}
	}
	passed := 0
	for passed < n && e.Contract.State() == contract.StateAudit {
		mineTo(e.Contract.TriggerHeight())
		issued := contract.IssueChallenges([]*contract.Contract{e.Contract})[0]
		ch, err := issued.Challenge, issued.Err
		if err != nil {
			return passed, err
		}
		c.MineBlock()
		proof, err := e.Responder.Respond(ctx, e.ID(), ch)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return passed, ctxErr
			}
			mineTo(e.Contract.TriggerHeight())
			return passed, e.SettleMissedDeadline()
		}
		if err := e.Contract.SubmitProof(e.Provider.Address(), proof); err != nil {
			return passed, err
		}
		c.MineBlock() // block inclusion: the settlement point
		res := contract.SettleBatchAt([]*contract.Contract{e.Contract}, c.Height(), 1, nil)[0]
		if res.Err != nil {
			return passed, res.Err
		}
		c.MineBlock() // the settlement transaction lands
		e.RecordSettledRound(res.Passed)
		if !res.Passed {
			break
		}
		passed++
	}
	return passed, nil
}
