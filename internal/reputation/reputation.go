// Package reputation implements the "robust reputation-based system" the
// paper invokes in Section VI-A as the countermeasure to residual
// misbehaviour that deposits alone cannot price in:
//
//   - a provider rejecting contracts after the owner paid the on-chain
//     storage cost of params/metadata (the initialization DoS), and
//   - Sybil identities farming engagement.
//
// The ledger is intentionally simple and auditable: every actor carries a
// score driven by on-chain events (passed audits up, slashes heavily down,
// pre-deposit rejections down), with an identity-age multiplier that makes
// freshly minted Sybil identities start at the bottom. Owners use the
// score to rank DHT provider candidates; providers use it to rank owners.
package reputation

import (
	"sync"
)

// Event is a reputation-relevant on-chain observation.
type Event int

// Event kinds mirror the audit contract's outcomes.
const (
	// EventAuditPassed: a round verified; the provider behaved.
	EventAuditPassed Event = iota
	// EventAuditFailed: a proof failed verification; the provider was
	// slashed.
	EventAuditFailed
	// EventDeadlineMissed: the provider never responded.
	EventDeadlineMissed
	// EventRejectedAfterNegotiate: the provider bailed after the owner
	// posted the contract on chain (the Section VI-A DoS). What the owner
	// loses is the contract's two-word key reference; the key body, Fig.
	// 4's one-time cost, was paid by the owner's first contract and stays
	// registered.
	eventRejectedAfterNegotiate
	// EventContractCompleted: a full contract served to expiry.
	EventContractCompleted
	// EventForgedMetadata: an owner was caught planting bad
	// authenticators during provider-side validation.
	EventForgedMetadata
	// EventRepairServed: a holder served its share to a repair, helping
	// reconstruct a lost share.
	EventRepairServed
	// EventRepairRefused: a holder failed to serve a share a repair asked
	// for (unreachable, dropped, or corrupted). Negative but non-slashing:
	// the contract-level audit is what convicts; repair refusal alone only
	// depresses ranking.
	EventRepairRefused
)

// scoreDelta maps events to score adjustments.
func scoreDelta(e Event) float64 {
	switch e {
	case EventAuditPassed:
		return +1
	case EventAuditFailed:
		return -50
	case EventDeadlineMissed:
		return -30
	case eventRejectedAfterNegotiate:
		return -10
	case EventContractCompleted:
		return +10
	case EventForgedMetadata:
		return -50
	case EventRepairServed:
		return +2
	case EventRepairRefused:
		return -20
	default:
		return 0
	}
}

// history is one identity's standing.
type history struct {
	Name       string
	Score      float64
	Age        int // observed events; proxies identity age / activity
	Completed  int
	Slashed    int
	Rejections int
}

// Ledger tracks scores for all identities. Safe for concurrent use.
type Ledger struct {
	mu      sync.RWMutex
	records map[string]*history
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{records: make(map[string]*history)}
}

// Observe applies an event to an identity, creating it on first sight.
func (l *Ledger) Observe(name string, e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.records[name]
	if !ok {
		r = &history{Name: name}
		l.records[name] = r
	}
	r.Age++
	r.Score += scoreDelta(e)
	switch e {
	case EventContractCompleted:
		r.Completed++
	case EventAuditFailed, EventDeadlineMissed, EventForgedMetadata:
		r.Slashed++
	case eventRejectedAfterNegotiate:
		r.Rejections++
	}
}

// Trust returns the effective trust of an identity in [0, 1]. Identities
// with no history score the Sybil floor; history is discounted by a
// logistic curve so one good contract cannot whitewash a slash.
func (l *Ledger) Trust(name string) float64 {
	l.mu.RLock()
	r, ok := l.records[name]
	l.mu.RUnlock()
	if !ok {
		return sybilFloor
	}
	// Slashed identities are hard-capped: deposits already priced one
	// offense; reputation makes repeat business unlikely.
	if r.Slashed > 0 {
		return 0
	}
	// Logistic on score, dampened by youth. Non-positive scores carry
	// no trust beyond the floor.
	s := r.Score
	if s <= 0 {
		return sybilFloor
	}
	base := s / (s + 20)
	youth := float64(r.Age) / float64(r.Age+5)
	t := sybilFloor + (1-sybilFloor)*base*youth
	if t > 1 {
		t = 1
	}
	return t
}

// sybilFloor is the trust of a never-seen identity: positive (newcomers
// must be able to join) but low enough that established providers win
// ranking ties, which is exactly what makes Sybil flooding uneconomical.
const sybilFloor = 0.05
