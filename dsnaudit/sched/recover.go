package sched

import (
	"errors"
	"fmt"
	"sort"

	"repro/dsnaudit"
	"repro/internal/chain"
	"repro/internal/contract"
)

// Recovery rebuilds a scheduler from its durable state: the last checkpoint
// plus the journal bytes written after it. No contract is rescanned — the
// registry, wake heights, parked backoffs and per-engagement accounting all
// come off disk, and the only per-engagement work is one Resolver call to
// reattach the live engagement object.
//
// The one thing disk cannot fully witness is the settlement that was in
// flight at the crash: the settlement stage applies verdicts on-chain before
// the scheduler records them, and a settled record waits in a buffer until
// the next barrier, so a crash leaves contract rounds (and funds, and
// slashes) that the journal has no settled record for. Recovery reconciles
// that window from the contract's own round records — each already-settled
// round is recognized, journaled, and never settled again. Whether its
// verdict reached the reputation ledger is a separate fact with a separate
// owner: the engagement counts the rounds it has fed (ObservedRounds), so a
// round whose settled record was lost after its observation is journaled
// again but not observed again. That is the never-double-slash invariant:
// the chain is authoritative for what settled, the engagement for what
// reputation saw, the journal for what was scheduled.

// Resolver reattaches the live engagement for a journaled contract address.
// Recovery calls it exactly once per recovered entry and never touches the
// chain's history.
type Resolver func(chain.Address) (*dsnaudit.Engagement, error)

// RecoveryReport describes what Recover rebuilt.
type RecoveryReport struct {
	Entries        int    // registry entries recovered (live + terminal)
	Live           int    // entries that resume scheduling
	Terminal       int    // entries recovered in a terminal state
	Reconciled     int    // settled-but-unjournaled rounds absorbed from contracts
	Finished       int    // entries that crossed into terminal during reconciliation
	Replayed       int    // journal records replayed past the checkpoint
	FromCheckpoint bool   // a checkpoint bounded the replay
	TornBytes      uint64 // torn journal tail bytes truncated on open
	ResolverCalls  int    // exactly one per recovered entry
	ResumeHeight   uint64 // wake height the first tick re-processes
}

// recoveredEntry is the merged durable view of one engagement: the
// checkpoint entry (if any) advanced by every journal record past it.
type recoveredEntry struct {
	addr       chain.Address
	seq        uint64
	baseRounds int
	rounds     int
	passed     int
	failed     int
	retries    int

	hint         uint8
	parkedKind   parkKind
	parkedRound  int
	parkedHeight uint64

	termState contract.State
	termErr   string
}

// durableState is everything the journal directory says about a scheduler.
type durableState struct {
	entries  map[chain.Address]*recoveredEntry
	order    []chain.Address // registration order of entries
	seq      uint64          // next sequence number
	lastWake uint64
	replayed int
	fromCkpt bool
}

// loadDurableState merges a checkpoint with dir's journal records past its
// offset. With no checkpoint the log is scanned from byte zero — which is
// also the full-history view LoadJournalView reads.
func loadDurableState(dir string, ckpt *checkpointData) (*durableState, error) {
	st := &durableState{entries: make(map[chain.Address]*recoveredEntry)}
	var offset int64
	if ckpt != nil {
		st.fromCkpt = true
		st.seq = ckpt.seq
		st.lastWake = ckpt.lastWake
		offset = ckpt.offset
		for _, ce := range ckpt.entries {
			re := &recoveredEntry{
				addr:         ce.addr,
				seq:          ce.seq,
				baseRounds:   ce.baseRounds,
				rounds:       ce.rounds,
				passed:       ce.passed,
				failed:       ce.failed,
				retries:      ce.retries,
				hint:         ce.hint,
				parkedRound:  ce.parkedRound,
				parkedHeight: ce.parkedHeight,
				termState:    ce.state,
				termErr:      ce.errMsg,
			}
			if ce.hint == hintDeadline {
				re.parkedKind = parkDeadline
			} else if ce.hint == hintRetry {
				re.parkedKind = parkRetry
			}
			st.entries[ce.addr] = re
			st.order = append(st.order, ce.addr)
		}
	}
	recs, _, err := readLogFrom(dir, offset)
	if err != nil {
		return nil, err
	}
	st.replayed = len(recs)
	for _, r := range recs {
		st.apply(r)
	}
	return st, nil
}

// apply advances the merged state by one journal record, in log order,
// which is the order they were appended.
func (st *durableState) apply(r journalRecord) {
	if r.typ == recTick {
		if r.height > st.lastWake {
			st.lastWake = r.height
		}
		return
	}
	re := st.entries[r.addr]
	switch r.typ {
	case recRegister:
		// A register on an existing address supersedes it: the entry was
		// compacted and the address re-added after its predecessor finished.
		re = &recoveredEntry{addr: r.addr, seq: r.seq, baseRounds: r.baseRounds}
		st.entries[r.addr] = re
		st.order = append(st.order, r.addr)
		if r.seq >= st.seq {
			st.seq = r.seq + 1
		}
	case recParked:
		if re == nil {
			return
		}
		if r.kind == parkDeadline {
			re.hint = hintDeadline
		} else {
			re.hint = hintRetry
		}
		re.parkedKind = r.kind
		re.parkedRound = r.round
		re.parkedHeight = r.height
		re.retries = r.retries
	case recSettled:
		if re == nil {
			return
		}
		re.hint = hintLive
		re.retries = 0
		re.rounds++
		if r.passed {
			re.passed++
		} else {
			re.failed++
		}
	case recTerminal:
		if re == nil {
			return
		}
		re.hint = hintTerminal
		re.termState = r.state
		re.rounds = r.rounds
		re.passed = r.passN
		re.failed = r.failN
		re.termErr = r.errMsg
	}
}

// Recover rebuilds a scheduler from the journal directory. The returned
// scheduler owns the reopened journal and resumes — its first Run tick
// re-processes the last wake height instead of mining a fresh block, so the
// block schedule continues exactly where the crashed run left it.
//
// Already-settled rounds the journal missed (the in-flight settlement
// window) are reconciled from each contract's round records: recognized,
// journaled, observed into reputation if the engagement has not fed them
// yet, and skipped — never re-settled, never re-slashed. Entries whose
// contracts crossed into a terminal state during that window are finished
// here, and their outcome hooks fire before Recover returns.
func Recover(dir string, n *dsnaudit.Network, resolve Resolver, opts ...Option) (*Scheduler, *RecoveryReport, error) {
	j, err := OpenJournal(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	ckpt, err := j.loadCheckpoint()
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	st, err := loadDurableState(dir, ckpt)
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	s := NewScheduler(n, append(append([]Option(nil), opts...), WithJournal(j))...)
	rep := &RecoveryReport{
		Replayed:       st.replayed,
		FromCheckpoint: st.fromCkpt,
		TornBytes:      j.Stats().TornBytes,
	}

	merged := make([]*recoveredEntry, 0, len(st.entries))
	for _, addr := range st.order {
		if re := st.entries[addr]; re != nil {
			merged = append(merged, re)
			st.entries[addr] = nil // order can list an address twice after a re-add
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].seq < merged[j].seq })

	resumeWake := st.lastWake
	if h := n.Chain.Height(); h < resumeWake {
		// The run died after its tick mark and before the chain sealed that
		// tick's block (a chain replayed from its log stops at the last
		// seal): clamp so the resume tick is real.
		resumeWake = h
	}

	for _, re := range merged {
		if re.hint == hintTerminal {
			rep.Entries++
			rep.Terminal++
			e, err := resolve(re.addr)
			rep.ResolverCalls++
			if err != nil {
				return nil, nil, fmt.Errorf("sched: recover %s: %w", re.addr, err)
			}
			en := s.insertRecovered(e, re)
			en.phase = phaseDone
			en.result.State = re.termState
			if re.termErr != "" {
				en.result.Err = errors.New(re.termErr)
			}
			s.store.mu.Lock()
			s.store.live--
			s.store.mu.Unlock()
			continue
		}

		e, err := resolve(re.addr)
		rep.ResolverCalls++
		if err != nil {
			return nil, nil, fmt.Errorf("sched: recover %s: %w", re.addr, err)
		}
		rep.Entries++
		// What the crashed run prepared died with it: a pending proof is
		// prepared at settlement, from the contract's own bytes.
		e.Contract.AttachPrepared(nil)

		// Reconcile the settled-but-unjournaled window: every contract round
		// past what the journal witnessed already moved funds and state
		// on-chain. The engagement says which of them reputation has seen;
		// the journal's own count says which the entry's accounting has.
		recs := e.Contract.Records()
		// A missed deadline settles with no proof transaction; its round
		// record is the only one with zero gas.
		missed := func(rec contract.RoundRecord) bool { return !rec.Passed && rec.GasUsed == 0 }
		for _, rec := range recs[min(e.ObservedRounds(), len(recs)):] {
			if missed(rec) {
				e.RecordMissedDeadline()
			} else {
				e.RecordSettledRound(rec.Passed)
			}
		}
		for _, rec := range recs[min(re.baseRounds+re.rounds, len(recs)):] {
			re.rounds++
			if rec.Passed {
				re.passed++
			} else {
				re.failed++
			}
			re.hint = hintLive
			rep.Reconciled++
			s.jappend(journalRecord{
				typ:      recSettled,
				addr:     re.addr,
				round:    rec.Round,
				passed:   rec.Passed,
				deadline: missed(rec),
			})
		}

		en := s.insertRecovered(e, re)
		if e.Contract.State().Terminal() {
			// The in-flight settlement carried this engagement to its end;
			// finish delivers the outcome hooks and journals the terminal
			// record, exactly as the crashed run would have.
			rep.Finished++
			s.finish(en, nil)
			continue
		}
		rep.Live++
		switch {
		case re.hint == hintDeadline && e.Contract.State() == contract.StateProve && re.parkedRound == e.Contract.Round():
			en.phase = phaseDeadline
			s.store.arm(e.Contract.TriggerHeight(), en)
		case re.hint == hintRetry && e.Contract.State() == contract.StateProve && re.parkedRound == e.Contract.Round():
			en.phase = phaseRetry
			en.retries = re.retries
			s.store.arm(re.parkedHeight, en)
		case e.Contract.State() == contract.StateAudit:
			s.store.arm(e.Contract.TriggerHeight(), en)
		default:
			// An open challenge (PROVE), a sealed proof awaiting settlement
			// (SETTLE), or a pre-audit state: due at the resume tick.
			s.store.arm(resumeWake, en)
		}
	}

	s.store.mu.Lock()
	if st.seq > s.store.seq {
		s.store.seq = st.seq
	}
	s.store.mu.Unlock()

	if st.lastWake > 0 {
		s.resume = true
		s.lastWake = resumeWake
	}
	rep.ResumeHeight = resumeWake
	if err := s.journalFault(); err != nil {
		return nil, nil, err
	}
	// Recovery restored parked phases directly, bypassing the phase
	// transition tracking; recount the parked gauge once.
	s.obsSyncParked()
	return s, rep, nil
}

// insertRecovered places a recovered entry in the registry with its original
// sequence number and merged accounting. The caller fixes phase, queues and
// the live counter as needed; the entry starts live and waiting.
func (s *Scheduler) insertRecovered(e *dsnaudit.Engagement, re *recoveredEntry) *entry {
	en := &entry{
		eng:        e,
		seq:        re.seq,
		baseRounds: re.baseRounds,
		phase:      phaseWaiting,
		result: dsnaudit.Result{
			Rounds: re.rounds,
			Passed: re.passed,
			Failed: re.failed,
			State:  e.Contract.State(),
		},
	}
	s.store.mu.Lock()
	s.store.byID[re.addr] = en
	s.store.live++
	s.store.mu.Unlock()
	return en
}
