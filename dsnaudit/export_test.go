package dsnaudit

import (
	"context"
	"fmt"

	"repro/internal/contract"
)

// DriveRounds is the reference driver (driveRounds) for the external test
// package, where it is the oracle of matchSequential and
// TestVerifierParityRandomized.
var DriveRounds = driveRounds

// EngageAll and the set's tallies below serve the tests alone: no driver
// deploys a whole-blob file on every holder (EngageShares audits shares).

// EngageAll deploys one audit contract per distinct share holder of sf, so
// an erasure-coded file is audited on every provider that holds a piece of
// it (the paper's many-to-many deployment shape). All engagements share the
// same terms. On a partial failure the already-established engagements are
// returned along with the error; their contracts remain live.
func (o *Owner) EngageAll(sf *StoredFile, terms EngagementTerms) (*EngagementSet, error) {
	if len(sf.Holders) == 0 {
		return nil, fmt.Errorf("%w: %s", errNoHolders, sf.Manifest.Name)
	}
	set := &EngagementSet{Owner: o, File: sf}
	seen := make(map[string]bool)
	for _, holder := range sf.Holders {
		if seen[holder.Name] {
			continue
		}
		seen[holder.Name] = true
		eng, err := o.EngageWith(context.Background(), sf, holder, holder, terms)
		if err != nil {
			return set, fmt.Errorf("dsnaudit: engage %s on %s: %w", sf.Manifest.Name, holder.Name, err)
		}
		set.Engagements = append(set.Engagements, eng)
	}
	return set, nil
}

// SetSummary aggregates pass/fail accounting across an engagement set.
type SetSummary struct {
	Engagements  int // total engagements in the set
	Expired      int // contracts that served every round
	Aborted      int // contracts terminated by a failed audit
	Active       int // contracts still in flight
	RoundsPassed int // audit rounds passed across the set
	RoundsFailed int // audit rounds failed across the set
}

// Summary tallies the set's per-contract states and round outcomes.
func (s *EngagementSet) Summary() SetSummary {
	var sum SetSummary
	sum.Engagements = len(s.Engagements)
	for _, e := range s.Engagements {
		switch e.Contract.State() {
		case contract.StateExpired:
			sum.Expired++
		case contract.StateAborted:
			sum.Aborted++
		default:
			sum.Active++
		}
		for _, rec := range e.Contract.Records() {
			if rec.Passed {
				sum.RoundsPassed++
			} else {
				sum.RoundsFailed++
			}
		}
	}
	return sum
}

// AllPassed reports whether every engagement served every round.
func (s *EngagementSet) AllPassed() bool {
	sum := s.Summary()
	return sum.Expired == sum.Engagements && sum.RoundsFailed == 0
}
