package dsnaudit

import (
	"errors"
	"fmt"
)

// Errors that wrap a failure's detail for the caller to read; nothing
// outside this package matches them.
var (
	// errUnknownProvider is returned when a DHT node or lookup names a
	// provider that was never registered with AddProvider.
	errUnknownProvider = errors.New("dsnaudit: unknown provider")

	// errDuplicateProvider is returned by AddProvider for a name already in
	// use on the network.
	errDuplicateProvider = errors.New("dsnaudit: provider already exists")

	// errInvalidTerms is returned by EngageWith and EngageShare for
	// unusable engagement terms (e.g. zero rounds).
	errInvalidTerms = errors.New("dsnaudit: invalid engagement terms")

	// errNoHolders is returned by EngageShares on a stored file with no
	// per-share holders.
	errNoHolders = errors.New("dsnaudit: stored file has no holders")
)

// Sentinel errors returned by the public API. Wrapped errors carry the
// contextual detail (provider name, contract address); match with errors.Is.
var (
	// ErrNoAuditState is returned by a provider asked to respond on a
	// contract it holds no audit state for.
	ErrNoAuditState = errors.New("dsnaudit: no audit state for contract")

	// ErrContractClosed is returned when an engagement whose contract
	// already reached a terminal state (EXPIRED/ABORTED) is run or
	// scheduled again.
	ErrContractClosed = errors.New("dsnaudit: contract closed")

	// ErrRejectedAuditData is returned when a provider's validation of the
	// owner's authenticators fails during EngageWith.
	ErrRejectedAuditData = errors.New("dsnaudit: provider rejected audit data")

	// ErrSchedulerRunning is returned by sched.Scheduler.Run if the scheduler is
	// already running.
	ErrSchedulerRunning = errors.New("dsnaudit: scheduler already running")

	// ErrAlreadyScheduled is returned by sched.Scheduler.Add for an engagement
	// whose ID is already registered.
	ErrAlreadyScheduled = errors.New("dsnaudit: engagement already scheduled")

	// ErrVerifierMismatch is returned by sched.Scheduler.Run when a custom
	// Verifier breaks the SettleBlock contract: a different number of
	// results than contracts handed to it, or results out of input order.
	ErrVerifierMismatch = errors.New("dsnaudit: verifier returned mismatched settlement results")

	// ErrProviderUnreachable is returned by a remote transport when the
	// provider cannot be reached at all — dial refused, connection torn
	// down and every re-dial attempt exhausted. The scheduler treats it
	// like any responder failure: the engagement waits out the proof
	// deadline and the provider is slashed for the missed round.
	ErrProviderUnreachable = errors.New("dsnaudit: provider unreachable")

	// ErrResponseTimeout is returned by a remote transport when the
	// provider accepted the request but no response arrived within the
	// per-call deadline — a crashed, wedged or slow-lorising provider.
	// Like ErrProviderUnreachable it maps onto the missed-round path.
	ErrResponseTimeout = errors.New("dsnaudit: provider response timed out")

	// ErrBadFrame is returned by a remote transport when a peer speaks the
	// wire protocol incorrectly: garbage bytes, a version mismatch or a
	// malformed payload. The connection that produced it is discarded
	// (framing is lost), and persistent occurrences fail the round.
	ErrBadFrame = errors.New("dsnaudit: bad wire frame from peer")

	// ErrShareUnavailable is returned by a share fetch when the holder is
	// reachable but has no object stored under the key — it dropped the
	// share, or never held it. Repair treats it like a refusal: the holder
	// contributes nothing to reconstruction and reputation records the
	// stonewall.
	ErrShareUnavailable = errors.New("dsnaudit: share unavailable on holder")

	// ErrNoReplacement is returned by the repair path when no candidate
	// provider could take a reconstructed share — every ranked candidate was
	// excluded, unreachable, or refused the re-engagement.
	ErrNoReplacement = errors.New("dsnaudit: no replacement provider available")

	// ErrOverloaded is returned by a provider (or its transport) that is at
	// its proving-admission limit: the request was understood and refused,
	// not lost. It is explicitly NOT a slashable offense — the provider is
	// alive and honest, just saturated — so the scheduler retries the challenge
	// after a backoff instead of parking the engagement on the missed-round
	// path. Wrap it in an OverloadedError to carry the provider's
	// retry-after hint.
	ErrOverloaded = errors.New("dsnaudit: provider overloaded")
)

// OverloadedError is ErrOverloaded with the provider's backoff hint
// attached. RetryAfter is in blocks (the scheduler's clock); 0 leaves the
// backoff to the caller. It unwraps to ErrOverloaded, so errors.Is keeps
// working for callers that don't care about the hint.
type OverloadedError struct {
	RetryAfter uint64
	Detail     string
}

// Error implements the error interface.
func (e *OverloadedError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%v (retry after %d blocks): %s", ErrOverloaded, e.RetryAfter, e.Detail)
	}
	return fmt.Sprintf("%v (retry after %d blocks)", ErrOverloaded, e.RetryAfter)
}

// Unwrap ties the typed error to the ErrOverloaded sentinel.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// RetryAfterHint extracts the provider's backoff hint from an overload
// error chain, or 0 when the error carries none.
func RetryAfterHint(err error) uint64 {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}
