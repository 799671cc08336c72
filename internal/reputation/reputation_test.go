package reputation

import (
	"errors"
	"fmt"
	"testing"
)

func TestObserveAndRecord(t *testing.T) {
	l := NewLedger()
	l.Observe("sp-1", EventAuditPassed)
	l.Observe("sp-1", EventAuditPassed)
	l.Observe("sp-1", EventContractCompleted)

	r, err := l.record("sp-1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Age != 3 || r.Completed != 1 || r.Score != 12 {
		t.Fatalf("record = %+v", r)
	}
	if _, err := l.record("ghost"); !errors.Is(err, errUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestTrustOrdering(t *testing.T) {
	l := NewLedger()
	// Established honest provider.
	for i := 0; i < 50; i++ {
		l.Observe("veteran", EventAuditPassed)
	}
	l.Observe("veteran", EventContractCompleted)

	// Young but clean.
	l.Observe("rookie", EventAuditPassed)

	// Slashed provider.
	for i := 0; i < 50; i++ {
		l.Observe("cheater", EventAuditPassed)
	}
	l.Observe("cheater", EventAuditFailed)

	tv, tr, tc := l.Trust("veteran"), l.Trust("rookie"), l.Trust("cheater")
	tn := l.Trust("nobody")

	if !(tv > tr && tr > tn) {
		t.Fatalf("ordering broken: veteran %.3f rookie %.3f nobody %.3f", tv, tr, tn)
	}
	if tc != 0 {
		t.Fatalf("slashed provider trust = %.3f, want 0 (hard cap)", tc)
	}
	if tn != sybilFloor {
		t.Fatalf("unknown trust = %.3f, want floor %.3f", tn, sybilFloor)
	}
}

func TestSlashDominatesHistory(t *testing.T) {
	// A long good history must not whitewash one slash.
	l := NewLedger()
	for i := 0; i < 1000; i++ {
		l.Observe("wolf", EventAuditPassed)
	}
	l.Observe("wolf", EventAuditFailed)
	for i := 0; i < 1000; i++ {
		l.Observe("wolf", EventAuditPassed)
	}
	if l.Trust("wolf") != 0 {
		t.Fatal("slashed identity regained trust")
	}
}

func TestRejectionDoSIsSelfDefeating(t *testing.T) {
	// The Section VI-A DoS: repeatedly rejecting after negotiation drives
	// the attacker's own trust to the floor, as the paper argues
	// ("good to none but worse to himself").
	l := NewLedger()
	l.Observe("griefer", EventAuditPassed)
	before := l.Trust("griefer")
	for i := 0; i < 5; i++ {
		l.Observe("griefer", eventRejectedAfterNegotiate)
	}
	after := l.Trust("griefer")
	if after >= before {
		t.Fatalf("rejections did not hurt: %.3f -> %.3f", before, after)
	}
}

func TestRank(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 30; i++ {
		l.Observe("good", EventAuditPassed)
	}
	l.Observe("meh", EventAuditPassed)
	l.Observe("bad", EventAuditFailed)

	// Placement ranks by trust: good, meh, the unknowns level with each
	// other (a stable sort keeps their DHT order), the slashed last.
	good, meh, unknownA, unknownB, bad := l.Trust("good"), l.Trust("meh"), l.Trust("unknown-a"), l.Trust("unknown-b"), l.Trust("bad")
	if !(good > meh && meh > unknownA && unknownA == unknownB && unknownB > bad) {
		t.Fatalf("trust good %v, meh %v, unknowns %v/%v, bad %v: want that order", good, meh, unknownA, unknownB, bad)
	}
}

func TestSybilResistance(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 100; i++ {
		l.Observe("incumbent", EventAuditPassed)
	}
	n := l.sybilResistance("incumbent")
	if n <= 0 {
		t.Fatalf("sybil resistance = %d", n)
	}
	// A Sybil must do real, audited work to catch up: at least dozens of
	// passed audits (each of which costs real storage and deposits).
	if n < 20 {
		t.Fatalf("sybil catches up after only %d audits", n)
	}
	if got := l.sybilResistance("never-seen"); got <= 0 {
		t.Fatalf("resistance vs floor identity = %d", got)
	}
}

func TestRepairEvents(t *testing.T) {
	l := NewLedger()

	// Serving repairs earns credit on top of audit history.
	for i := 0; i < 10; i++ {
		l.Observe("helper", EventAuditPassed)
	}
	before := l.Trust("helper")
	l.Observe("helper", EventRepairServed)
	r, err := l.record("helper")
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != 12 {
		t.Fatalf("score = %v, want 10 passes + 2 repair credit", r.Score)
	}
	if l.Trust("helper") <= before {
		t.Fatalf("serving a repair did not raise trust: %.4f -> %.4f", before, l.Trust("helper"))
	}

	// Refusing repairs depresses ranking but must NOT slash: only the
	// contract-level audit convicts, and Trust hard-zeros on Slashed > 0.
	for i := 0; i < 10; i++ {
		l.Observe("hoarder", EventAuditPassed)
	}
	whole := l.Trust("hoarder")
	l.Observe("hoarder", EventRepairRefused)
	r, err = l.record("hoarder")
	if err != nil {
		t.Fatal(err)
	}
	if r.Slashed != 0 {
		t.Fatalf("repair refusal counted as a slash: %+v", r)
	}
	if r.Score != -10 {
		t.Fatalf("score = %v, want 10 passes - 20 refusal penalty", r.Score)
	}
	if got := l.Trust("hoarder"); got >= whole || got <= 0 {
		t.Fatalf("refusal trust %.4f, want depressed but above zero (was %.4f)", got, whole)
	}

	// Ranking: a refuser sinks below clean peers but stays above a
	// convicted one.
	l.Observe("felon", EventAuditFailed)
	if helper, hoarder, felon := l.Trust("helper"), l.Trust("hoarder"), l.Trust("felon"); !(helper > hoarder && hoarder > felon) {
		t.Fatalf("trust helper %v, hoarder %v, felon %v: want strictly descending", helper, hoarder, felon)
	}
}

// errUnknown is returned for identities with no history.
var errUnknown = errors.New("reputation: unknown identity")

// record returns a copy of an identity's standing.
func (l *Ledger) record(name string) (history, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	r, ok := l.records[name]
	if !ok {
		return history{}, fmt.Errorf("%w: %s", errUnknown, name)
	}
	return *r, nil
}

// sybilResistance quantifies the cost of a Sybil flood: the number of
// passed audits a fresh identity needs before its trust exceeds that of an
// established identity with the given record. It returns -1 if the target
// is unreachable (e.g. the established identity is at the cap).
func (l *Ledger) sybilResistance(established string) int {
	target := l.Trust(established)
	if target >= 1 {
		return -1
	}
	// Simulate a fresh identity accumulating passes.
	fresh := &history{}
	for n := 1; n <= 10000; n++ {
		fresh.Age++
		fresh.Score += scoreDelta(EventAuditPassed)
		s := fresh.Score
		if s <= 0 {
			continue
		}
		base := s / (s + 20)
		youth := float64(fresh.Age) / float64(fresh.Age+5)
		if sybilFloor+(1-sybilFloor)*base*youth > target {
			return n
		}
	}
	return -1
}
