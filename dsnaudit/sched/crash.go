package sched

import "errors"

// crashPoint labels a stage boundary of one tick where a test can kill a
// run: the chain moves between these points while the journal writes
// nothing, so no file-system effect marks them. The journal's own effects
// need no label; a test kills those through its fsys.
type crashPoint string

const (
	// crashPreIssue: top of a tick, before any due engagement is woken.
	crashPreIssue crashPoint = "pre-issue"
	// crashPostIssue: challenges issued, no proof submitted.
	crashPostIssue crashPoint = "post-issue"
	// crashMidProve: one proof of the tick on-chain, the rest never are.
	crashMidProve crashPoint = "mid-prove"
	// crashPreSettle: the tick's proofs sealed, the block not yet handed to
	// the settlement stage.
	crashPreSettle crashPoint = "pre-settle"
	// crashPostSettle: the settlement stage applied its verdicts on-chain
	// but the scheduler has not recorded them — the window recovery must
	// reconcile without re-slashing.
	crashPostSettle crashPoint = "post-settle"
)

// errCrashed is what Run returns when the crash hook killed it.
var errCrashed = errors.New("sched: killed at crash point")

// crashAt consults the scheduler's crash hook, which only tests set.
func (s *Scheduler) crashAt(p crashPoint) bool {
	return s.crashHook != nil && s.crashHook(p)
}
