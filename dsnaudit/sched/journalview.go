package sched

import (
	"repro/internal/chain"
	"repro/internal/contract"
)

// LoadJournalView reads a journal directory's full history — the log from
// byte zero, checkpoint ignored — into an exported, address-keyed view.
// It is the out-of-process resume path's window into a dead scheduler's
// state: a fresh process that rebuilds the world from persisted keys uses
// the view to replay each engagement's settled rounds onto its rebuilt
// contract before handing the directory to Recover. Torn tails are absorbed
// under the journal's usual rule; mid-file corruption, and a meta that is
// not this layout's, surface as errors matching ErrJournalCorrupt.
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
			Settled:    append([]SettledRound(nil), re.settled...),
		})
	}
	return v, nil
}

// JournalView is the merged full-history state of one journal directory.
type JournalView struct {
	LastWake uint64             // highest wake height the dead scheduler processed
	Entries  []JournalEntryView // registration order
}

// Entry returns the view's entry for one contract address.
func (v *JournalView) Entry(addr chain.Address) (JournalEntryView, bool) {
	for _, e := range v.Entries {
		if e.Addr == addr {
			return e, true
		}
	}
	return JournalEntryView{}, false
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
	Settled    []SettledRound // in settlement order
}
