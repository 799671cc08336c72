package dsnaudit

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
)

// failingTransport fails the audit-data handoff with a fixed error; an
// engagement must never get far enough to ask it for proofs.
type failingTransport struct{ err error }

func (f failingTransport) AcceptAuditData(context.Context, chain.Address, *core.PublicKey, *core.EncodedFile, []*core.Authenticator, int) error {
	return f.err
}

func (f failingTransport) Respond(context.Context, chain.Address, *core.Challenge) ([]byte, error) {
	return nil, f.err
}

// TestEngageHandoffFailureDoesNotSmearReputation pins the reputation
// policy of the audit-data handoff: only a provider that inspected the
// data and refused it (ErrRejectedAuditData) records forged metadata
// against the owner. A handoff that dies in transit — an unreachable or
// draining server, a blown deadline, an internal server fault — aborts the
// deployment with the transport's error and no reputation consequence for
// either party.
func TestEngageHandoffFailureDoesNotSmearReputation(t *testing.T) {
	n := testNetwork(t, 12)
	owner, err := NewOwner(n, "alice", 4, eth(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1200)
	rand.Read(data)
	sf, err := owner.Outsource("handoff-file", data, 3, 7)
	if err != nil {
		t.Fatal(err)
	}

	handoffFailures := []error{
		fmt.Errorf("%w: dial refused", ErrProviderUnreachable),
		fmt.Errorf("%w: no answer in 5s", ErrResponseTimeout),
		fmt.Errorf("%w: garbage from peer", ErrBadFrame),
		errors.New("remote internal error: marshal failed"), // CodeInternal analogue
	}
	ctx := context.Background()
	for _, failure := range handoffFailures {
		_, err := owner.EngageWith(ctx, sf, sf.Holders[0], failingTransport{err: failure}, smallTerms(2))
		if !errors.Is(err, failure) && err.Error() != failure.Error() {
			t.Fatalf("EngageWith error = %v, want the transport's %v", err, failure)
		}
		if errors.Is(err, ErrRejectedAuditData) {
			t.Fatalf("handoff failure %v misclassified as a provider rejection", failure)
		}
	}
	if n.Reputation.Trust("alice") == 0 {
		t.Fatal("owner slashed by failed handoffs")
	}

	// A genuine rejection — the provider validated forged authenticators —
	// still records forged metadata against the owner.
	sf.Encoded.Corrupt(0, 0)
	if _, err := owner.EngageWith(context.Background(), sf, sf.Holders[1], sf.Holders[1], smallTerms(1)); !errors.Is(err, ErrRejectedAuditData) {
		t.Fatalf("forged auths: error = %v, want ErrRejectedAuditData", err)
	}
	if n.Reputation.Trust("alice") != 0 {
		t.Fatal("owner not slashed after a genuine rejection")
	}
}
