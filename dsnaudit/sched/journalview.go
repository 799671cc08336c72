package sched

import (
	"repro/internal/chain"
	"repro/internal/contract"
)

// LoadJournalView reads a journal directory's full history — the log from
// byte zero, checkpoint ignored — into an exported view, in registration
// order. The benchmark's oracle reads it to check that the journal witnessed
// every round the verifier judged, and `dsn-audit resume` to report the
// journal's last wake beside the replayed chain's height. Torn tails are
// absorbed under the journal's usual rule; mid-file corruption, and a meta
// that is not this layout's, surface as errors matching ErrJournalCorrupt.
func LoadJournalView(dir string) (*JournalView, error) {
	if err := readJournalMeta(dir); err != nil {
		return nil, err
	}
	st, err := loadDurableState(dir, nil)
	if err != nil {
		return nil, err
	}
	v := &JournalView{LastWake: st.lastWake}
	for _, addr := range st.order {
		re := st.entries[addr]
		if re == nil {
			continue // superseded registration; the latest one carries the state
		}
		st.entries[addr] = nil
		v.Entries = append(v.Entries, JournalEntryView{
			Addr:       re.addr,
			Seq:        re.seq,
			BaseRounds: re.baseRounds,
			Rounds:     re.rounds,
			Passed:     re.passed,
			Failed:     re.failed,
			Terminal:   re.hint == hintTerminal,
			TermState:  re.termState,
			TermErr:    re.termErr,
		})
	}
	return v, nil
}

// JournalView is the merged full-history state of one journal directory.
type JournalView struct {
	LastWake uint64             // highest wake height the dead scheduler processed
	Entries  []JournalEntryView // registration order
}

// JournalEntryView is one engagement's journal-witnessed history.
type JournalEntryView struct {
	Addr       chain.Address
	Seq        uint64
	BaseRounds int // contract rounds already settled when the engagement was added
	Rounds     int // rounds the journal witnessed settling
	Passed     int
	Failed     int
	Terminal   bool
	TermState  contract.State
	TermErr    string
}
