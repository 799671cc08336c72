package contract

import (
	"crypto/rand"
	"testing"

	"repro/internal/core"
)

// provePending issues the fixture's next challenge and returns an honest
// proof's bytes for it, unsubmitted.
func provePending(t *testing.T, f *fixture) (*core.Challenge, []byte) {
	t.Helper()
	f.advance()
	ch, err := f.contract.IssueChallenge()
	if err != nil {
		t.Fatal(err)
	}
	proof, err := f.prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := proof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return ch, enc
}

// prepare runs the per-item step the way a prove worker does.
func prepare(t *testing.T, f *fixture, ch *core.Challenge, raw []byte) *core.PreparedProof {
	t.Helper()
	p, err := core.PrepareProof(f.contract.Terms.PublicKey, f.contract.Terms.NumChunks, ch, raw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// submitWith submits raw as the pending proof, attaches p and settles the
// contract alone in a batch.
func submitWith(t *testing.T, f *fixture, raw []byte, p *core.PreparedProof) SettleResult {
	t.Helper()
	if err := f.contract.SubmitProof("provider", raw); err != nil {
		t.Fatal(err)
	}
	f.contract.AttachPrepared(p)
	f.chain.MineBlock()
	res := SettleBatchAt([]*Contract{f.contract}, f.chain.Height(), 0, nil)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if f.contract.prepared != nil {
		t.Fatal("a prepared item outlived its verdict")
	}
	return res
}

// TestPreparedItemIsBound pins that an attached prepared item is used only
// when it was made from exactly the pending bytes and the open challenge, so
// it can never change a verdict, and that the verdict drops it.
func TestPreparedItemIsBound(t *testing.T) {
	t.Run("honest item on garbage bytes", func(t *testing.T) {
		// TestGarbageProofSlashes' outcome: slashed, no pairing gas.
		f := newFixture(t, 2, nil)
		f.initToAudit(t)
		ch, enc := provePending(t, f)
		garbage := make([]byte, core.PrivateProofSize)
		if err := f.contract.SubmitProof("provider", garbage); err != nil {
			t.Fatal(err)
		}
		f.contract.AttachPrepared(prepare(t, f, ch, enc))
		if f.contract.boundPrepared() != nil {
			t.Fatal("an item made from other bytes is bound to the garbage")
		}
		res := SettleBatchAt([]*Contract{f.contract}, f.chain.Height(), 0, nil)[0]
		if res.Err != nil || res.Passed || f.contract.State() != StateAborted {
			t.Fatalf("garbage under an honest item: %+v, state %s", res, f.contract.State())
		}
		if rec := f.contract.Records()[0]; rec.SettleGas != f.chain.Config().Gas.TxBase {
			t.Fatalf("parse rejection charged verification gas: %d", rec.SettleGas)
		}
	})

	t.Run("failing item on an honest proof", func(t *testing.T) {
		f := newFixture(t, 2, nil)
		f.initToAudit(t)
		ch, enc := provePending(t, f)
		forged := append([]byte(nil), enc...)
		forged[63] ^= 1 // the low byte of y', which follows sigma's 32
		bad := prepare(t, f, ch, forged)
		if core.VerifyPrepared([]*core.PreparedProof{bad}, nil, 1)[0] {
			t.Fatal("the forged proof verifies: the case plants nothing")
		}
		if res := submitWith(t, f, enc, bad); !res.Passed {
			t.Fatal("an honest proof failed under an item made from other bytes")
		}
	})

	t.Run("item from another round's challenge", func(t *testing.T) {
		f := newFixture(t, 2, nil)
		f.initToAudit(t)
		ch0, enc0 := provePending(t, f)
		stale := prepare(t, f, ch0, enc0)
		if res := submitWith(t, f, enc0, stale); !res.Passed {
			t.Fatal("round 0 failed")
		}
		// Round 1 replays round 0's bytes with the item that passed them.
		provePending(t, f)
		if err := f.contract.SubmitProof("provider", enc0); err != nil {
			t.Fatal(err)
		}
		f.contract.AttachPrepared(stale)
		if f.contract.boundPrepared() != nil {
			t.Fatal("an item prepared against round 0's challenge is bound in round 1")
		}
		f.chain.MineBlock()
		res := SettleBatchAt([]*Contract{f.contract}, f.chain.Height(), 0, nil)[0]
		if res.Err != nil || res.Passed {
			t.Fatalf("a replayed proof settled with its stale item: %+v", res)
		}
		if f.contract.prepared != nil {
			t.Fatal("a prepared item outlived its verdict")
		}
	})

	t.Run("no item survives its verdict", func(t *testing.T) {
		f := newFixture(t, 3, nil)
		f.initToAudit(t)
		// Outside SETTLE an item is not taken.
		f.contract.AttachPrepared(&core.PreparedProof{})
		if f.contract.prepared != nil {
			t.Fatal("an item was attached outside SETTLE")
		}
		ch, enc := provePending(t, f)
		p := prepare(t, f, ch, enc)
		if err := f.contract.SubmitProof("provider", enc); err != nil {
			t.Fatal(err)
		}
		f.contract.AttachPrepared(p)
		if f.contract.boundPrepared() == nil {
			t.Fatal("an item made from the pending proof is not bound")
		}
		// Every verdict path drops it: a one-contract block ...
		if ok, err := f.settle(); err != nil || !ok {
			t.Fatalf("settle = %v, %v", ok, err)
		}
		if f.contract.prepared != nil || f.contract.boundPrepared() != nil {
			t.Fatal("SettleBatchAt kept the prepared item")
		}
		// ... and the trusted path.
		ch, enc = provePending(t, f)
		if err := f.contract.SubmitProof("provider", enc); err != nil {
			t.Fatal(err)
		}
		f.contract.AttachPrepared(prepare(t, f, ch, enc))
		if err := SettleVerdictsAt([]Verdict{{Contract: f.contract, Passed: true}}, f.chain.Height())[0].Err; err != nil {
			t.Fatal(err)
		}
		if f.contract.prepared != nil {
			t.Fatal("SettleVerdictsAt kept the prepared item")
		}
	})
}

// TestSettleBatchPreparedMatchesUnprepared settles two blocks of the same
// shape, one cheater among four, with no item attached and with items on
// half the contracts: verdicts, pairing work and gas are the same, and only
// the unattached items are prepared at settlement.
func TestSettleBatchPreparedMatchesUnprepared(t *testing.T) {
	const n, bad = 4, 2
	run := func(attach bool) ([]SettleResult, core.BatchStats, []uint64) {
		cs := make([]*Contract, n)
		for i := range cs {
			f := newFixture(t, 1, nil)
			submitRound(t, f, i == bad)
			if attach && i%2 == 0 {
				p, err := core.PrepareProof(f.contract.Terms.PublicKey, f.contract.Terms.NumChunks, f.contract.CurrentChallenge(), f.contract.pendingProof)
				if err != nil {
					t.Fatal(err)
				}
				f.contract.AttachPrepared(p)
			}
			cs[i] = f.contract
		}
		var stats core.BatchStats
		res := SettleBatchAt(cs, cs[0].Chain.Height(), 0, &stats)
		gas := make([]uint64, n)
		for i, k := range cs {
			gas[i] = k.Records()[0].SettleGas
		}
		return res, stats, gas
	}
	plainRes, plainStats, plainGas := run(false)
	prepRes, prepStats, prepGas := run(true)
	for i := range plainRes {
		if plainRes[i].Passed != (i != bad) || prepRes[i].Passed != plainRes[i].Passed {
			t.Errorf("contract %d: unprepared %v, prepared %v", i, plainRes[i].Passed, prepRes[i].Passed)
		}
		if prepGas[i] != plainGas[i] {
			t.Errorf("contract %d: settle gas %d prepared, %d unprepared", i, prepGas[i], plainGas[i])
		}
	}
	if prepStats.FinalExps != plainStats.FinalExps || prepStats.MillerLoops != plainStats.MillerLoops {
		t.Errorf("stats %+v prepared, %+v unprepared", prepStats, plainStats)
	}
	if plainStats.Prepares != n || prepStats.Prepares != n/2 {
		t.Errorf("settlement prepared %d items with none attached and %d with half attached, want %d and %d",
			plainStats.Prepares, prepStats.Prepares, n, n/2)
	}
}
