package dsnaudit

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/chain"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/reputation"
)

// EngagementTerms sets the negotiable contract parameters.
type EngagementTerms struct {
	Rounds          int
	ChallengeSize   int // k; 300 gives the paper's 95% @ 1% corruption
	RoundInterval   uint64
	ProofDeadline   uint64
	PaymentPerRound *big.Int
	ProviderDeposit *big.Int
}

// DefaultTerms returns sensible terms: k=300, daily-equivalent interval.
func DefaultTerms(rounds int) EngagementTerms {
	return EngagementTerms{
		Rounds:          rounds,
		ChallengeSize:   300,
		RoundInterval:   2,
		ProofDeadline:   2,
		PaymentPerRound: big.NewInt(1000),
		ProviderDeposit: big.NewInt(50_000),
	}
}

// Engagement is a live audit contract between one owner and one provider.
type Engagement struct {
	Contract *contract.Contract
	Owner    *Owner
	Provider *ProviderNode

	// Responder produces this engagement's proofs. It defaults to Provider;
	// swap it to interpose latency, faults, or a remote transport.
	Responder Responder

	// ShareIndex is the erasure share this engagement audits under the
	// sharded deployment (EngageShare/EngageShares), or -1 for a whole-blob
	// engagement. Generation counts re-engagements of the same share slot:
	// 0 at outsourcing, +1 per renewal or repair, salting the contract
	// address so successive contracts never collide.
	ShareIndex int
	Generation int

	network *Network

	// observed counts the contract rounds whose verdicts this engagement has
	// fed to the reputation ledger; see ObservedRounds.
	observed int
}

// ID returns the engagement's stable identity: its contract address. It
// survives process boundaries and keys the scheduler's accounting.
func (e *Engagement) ID() chain.Address { return e.Contract.Addr }

// Result is the per-engagement outcome accounting kept by the scheduler
// (dsnaudit/sched).
type Result struct {
	Rounds int            // settled rounds
	Passed int            // rounds that passed verification
	Failed int            // rounds that failed or missed the deadline
	State  contract.State // contract state at last settlement
	Err    error          // terminal error, if the engagement errored out
}

// Outcome is one engagement's terminal result, delivered to the scheduler's
// outcome hooks the moment the engagement finishes — no Results polling
// needed.
type Outcome struct {
	ID     chain.Address
	Eng    *Engagement
	Result Result
}

// Engage walks the full Initialize phase of Fig. 2 against one provider:
// deploy, post parameters (Fig. 4's one-time cost), provider-side
// authenticator validation, acknowledgment, and deposit freezing.
func (o *Owner) Engage(sf *StoredFile, p *ProviderNode, terms EngagementTerms) (*Engagement, error) {
	return o.EngageWith(context.Background(), sf, p, p, terms)
}

// EngageWith is Engage with the provider's transport made explicit: the
// contract binds p's on-chain identity (its address, deposits and
// reputation), while the audit-data handoff and every subsequent challenge
// go through t — the node itself for an in-process provider, a
// remote.Client for a provider serving from another OS process, or a fault
// injector. ctx bounds the off-chain handoff; a transport failure there
// surfaces before any deposit is frozen.
func (o *Owner) EngageWith(ctx context.Context, sf *StoredFile, p *ProviderNode, t ProviderTransport, terms EngagementTerms) (*Engagement, error) {
	addr := chain.Address(fmt.Sprintf("audit:%s:%s:%s", o.Name, p.Name, sf.Manifest.Name))
	eng, err := o.engageAudit(ctx, addr, p, t, terms, sf.Encoded, sf.Auths)
	if err != nil {
		return nil, err
	}
	eng.ShareIndex = -1
	return eng, nil
}

// EngageShare deploys an audit contract covering one erasure share of a
// sharded stored file (OutsourceSharded): the provider receives and is
// audited on exactly the share's bytes. generation salts the contract
// address so repairing or renewing the same share slot never collides with
// the contract it replaces.
func (o *Owner) EngageShare(ctx context.Context, sf *StoredFile, index, generation int, p *ProviderNode, t ProviderTransport, terms EngagementTerms) (*Engagement, error) {
	if sf.Shares == nil || index < 0 || index >= len(sf.Shares) {
		return nil, fmt.Errorf("%w: no share audit state for index %d of %s", ErrInvalidTerms, index, sf.Manifest.Name)
	}
	sa := sf.Shares[index]
	addr := chain.Address(fmt.Sprintf("audit:%s:%s:%s#%d.g%d", o.Name, p.Name, sf.Manifest.Name, index, generation))
	eng, err := o.engageAudit(ctx, addr, p, t, terms, sa.Encoded, sa.Auths)
	if err != nil {
		return nil, err
	}
	eng.ShareIndex = index
	eng.Generation = generation
	return eng, nil
}

// EngageShares deploys one per-share audit contract for every share of a
// sharded stored file, against its current holders. transportFor maps each
// holder to the transport used to reach it (nil = in-process, the node
// itself). On partial failure the established engagements are returned with
// the error.
func (o *Owner) EngageShares(ctx context.Context, sf *StoredFile, terms EngagementTerms, transportFor func(*ProviderNode) ProviderTransport) (*EngagementSet, error) {
	if sf.Shares == nil {
		return nil, fmt.Errorf("%w: %s was not outsourced sharded", ErrNoHolders, sf.Manifest.Name)
	}
	if len(sf.Holders) != len(sf.Shares) {
		return nil, fmt.Errorf("%w: %d holders for %d shares", ErrNoHolders, len(sf.Holders), len(sf.Shares))
	}
	set := &EngagementSet{Owner: o, File: sf}
	for i, holder := range sf.Holders {
		var t ProviderTransport = holder
		if transportFor != nil {
			t = transportFor(holder)
		}
		eng, err := o.EngageShare(ctx, sf, i, 0, holder, t, terms)
		if err != nil {
			return set, fmt.Errorf("dsnaudit: engage share %d of %s on %s: %w", i, sf.Manifest.Name, holder.Name, err)
		}
		set.Engagements = append(set.Engagements, eng)
	}
	return set, nil
}

// engageAudit walks the Initialize phase of Fig. 2 for one audited object
// (a whole sealed blob or a single erasure share) at an explicit contract
// address. It is the shared body of EngageWith and EngageShare.
func (o *Owner) engageAudit(ctx context.Context, addr chain.Address, p *ProviderNode, t ProviderTransport, terms EngagementTerms, ef *core.EncodedFile, auths []*core.Authenticator) (*Engagement, error) {
	if terms.Rounds < 1 {
		return nil, fmt.Errorf("%w: at least one audit round required", ErrInvalidTerms)
	}
	agreement := contract.Agreement{
		Owner:            o.Address(),
		Provider:         p.Address(),
		Rounds:           terms.Rounds,
		ChallengeSize:    terms.ChallengeSize,
		RoundInterval:    terms.RoundInterval,
		ProofDeadline:    terms.ProofDeadline,
		PaymentPerRound:  terms.PaymentPerRound,
		OwnerDeposit:     new(big.Int).Mul(terms.PaymentPerRound, big.NewInt(int64(terms.Rounds))),
		ProviderDeposit:  terms.ProviderDeposit,
		NumChunks:        ef.NumChunks(),
		PublicKey:        o.AuditSK.Pub,
		PublicKeyPrivacy: true,
	}
	k, err := contract.Deploy(o.network.Chain, addr, agreement, o.network.Beacon, o.network.verifyGas)
	if err != nil {
		return nil, err
	}
	if err := k.Negotiate(); err != nil {
		return nil, err
	}
	// Off-chain: hand the data and authenticators to the provider — over
	// whatever transport t is — which validates before acknowledging on
	// chain.
	if err := t.AcceptAuditData(ctx, addr, o.AuditSK.Pub, ef, auths, 8); err != nil {
		if ackErr := k.Acknowledge(p.Address(), false); ackErr != nil {
			return nil, ackErr
		}
		if !errors.Is(err, ErrRejectedAuditData) {
			// The handoff never completed — transport failure, a draining
			// or internally-broken server, a canceled context. The
			// provider inspected nothing, so the deployment aborts
			// without smearing either party's reputation.
			return nil, err
		}
		// The provider validated the data and refused the deal; the
		// owner's forged metadata is what reputation records here.
		o.network.Reputation.Observe(o.Name, reputation.EventForgedMetadata)
		return nil, err
	}
	if err := k.Acknowledge(p.Address(), true); err != nil {
		return nil, err
	}
	if err := k.Freeze(); err != nil {
		return nil, err
	}
	return &Engagement{Contract: k, Owner: o, Provider: p, Responder: t, ShareIndex: -1, network: o.network}, nil
}

// EngageAll deploys one audit contract per distinct share holder of sf, so
// an erasure-coded file is audited on every provider that holds a piece of
// it (the paper's many-to-many deployment shape). All engagements share the
// same terms. On a partial failure the already-established engagements are
// returned along with the error; their contracts remain live.
func (o *Owner) EngageAll(sf *StoredFile, terms EngagementTerms) (*EngagementSet, error) {
	if len(sf.Holders) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoHolders, sf.Manifest.Name)
	}
	set := &EngagementSet{Owner: o, File: sf}
	seen := make(map[string]bool)
	for _, holder := range sf.Holders {
		if seen[holder.Name] {
			continue
		}
		seen[holder.Name] = true
		eng, err := o.Engage(sf, holder, terms)
		if err != nil {
			return set, fmt.Errorf("dsnaudit: engage %s on %s: %w", sf.Manifest.Name, holder.Name, err)
		}
		set.Engagements = append(set.Engagements, eng)
	}
	return set, nil
}

// EngagementSet is a group of engagements auditing the same stored file,
// one per distinct share holder.
type EngagementSet struct {
	Owner       *Owner
	File        *StoredFile
	Engagements []*Engagement
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

// RunAll drives every engagement in the set sequentially to completion.
// For the concurrent equivalent, register the set with a sched.Scheduler.
func (s *EngagementSet) RunAll(ctx context.Context) (SetSummary, error) {
	for _, e := range s.Engagements {
		if _, err := e.RunAll(ctx); err != nil {
			return s.Summary(), err
		}
	}
	return s.Summary(), nil
}

// RunRound advances the chain to the scheduled challenge, has the responder
// answer, and settles the round. It returns whether the audit passed.
// Running a closed engagement returns ErrContractClosed; a canceled ctx
// aborts between steps and before proof generation.
func (e *Engagement) RunRound(ctx context.Context) (bool, error) {
	if e.Contract.State().Terminal() {
		return false, fmt.Errorf("%w: %s (%s)", ErrContractClosed, e.Contract.Addr, e.Contract.State())
	}
	if e.Contract.State() == contract.StateSettle {
		// A proof is already pending (e.g. a scheduler canceled mid-block):
		// the open round completes by settling it. Mine first so the
		// verdict fires at block inclusion, like the normal path below,
		// then mine again so the settlement transaction itself lands.
		e.network.Chain.MineBlock()
		passed, err := e.Contract.Settle()
		if err != nil {
			return false, err
		}
		e.network.Chain.MineBlock()
		e.RecordSettledRound(passed)
		return passed, nil
	}
	for e.network.Chain.Height() < e.Contract.TriggerHeight() {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		e.network.Chain.MineBlock()
	}
	ch, err := e.Contract.IssueChallenge()
	if err != nil {
		return false, err
	}
	if ch == nil {
		// The trigger fired with no rounds left: the contract expired.
		return false, fmt.Errorf("%w: %s", ErrContractClosed, e.Contract.Addr)
	}
	e.network.Chain.MineBlock()
	proofBytes, err := e.Responder.Respond(ctx, e.Contract.Addr, ch)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return false, ctxErr
		}
		// A responder that cannot produce a proof misses the deadline.
		for e.network.Chain.Height() < e.Contract.TriggerHeight() {
			e.network.Chain.MineBlock()
		}
		return false, e.SettleMissedDeadline()
	}
	if err := e.Contract.SubmitProof(e.Provider.Address(), proofBytes); err != nil {
		return false, err
	}
	// Block inclusion is the settlement point of the two-phase protocol:
	// mine the proof transaction in, then settle the verdict.
	e.network.Chain.MineBlock()
	passed, err := e.Contract.Settle()
	if err != nil {
		return false, err
	}
	e.network.Chain.MineBlock()
	e.RecordSettledRound(passed)
	return passed, nil
}

// RunAll runs every remaining round, stopping early on failure. It returns
// the number of passed rounds. An engagement left with a proof pending
// settlement (a scheduler canceled mid-block) settles that round first.
func (e *Engagement) RunAll(ctx context.Context) (int, error) {
	passed := 0
	for e.Contract.State() == contract.StateAudit || e.Contract.State() == contract.StateSettle {
		ok, err := e.RunRound(ctx)
		if err != nil {
			return passed, err
		}
		if !ok {
			return passed, nil
		}
		passed++
	}
	return passed, nil
}

// ObservedRounds returns how many of the contract's settled rounds have been
// fed to the reputation ledger: RecordSettledRound and RecordMissedDeadline
// each advance it by one, and an adopted contract starts at the rounds it
// had already settled. The engagement is the one owner of that fact —
// recovery observes contract rounds from this count up, whatever the journal
// lost, so a round is never observed twice.
func (e *Engagement) ObservedRounds() int { return e.observed }

// Network returns the simulation network the engagement is bound to. The
// scheduler (dsnaudit/sched) needs it to share the engagement's chain and
// reputation ledger.
func (e *Engagement) Network() *Network { return e.network }

// SettleMissedDeadline settles a missed proof deadline: the contract slashes
// the provider and reputation records the miss.
func (e *Engagement) SettleMissedDeadline() error {
	if err := e.Contract.MissDeadline(); err != nil {
		return err
	}
	e.RecordMissedDeadline()
	return nil
}

// RecordMissedDeadline feeds one already-settled deadline miss into the
// reputation ledger without touching the contract. Recovery uses it for
// rounds whose slash landed on-chain before a crash but whose reputation
// observation was lost with the crashed process — the contract side must
// not run twice, the ledger side must run exactly once.
func (e *Engagement) RecordMissedDeadline() {
	e.observed++
	e.network.Reputation.Observe(e.Provider.Name, reputation.EventDeadlineMissed)
}

// RecordSettledRound feeds one settled round's verdict into the reputation
// ledger.
func (e *Engagement) RecordSettledRound(passed bool) {
	e.observed++
	if passed {
		e.network.Reputation.Observe(e.Provider.Name, reputation.EventAuditPassed)
		if e.Contract.State() == contract.StateExpired {
			e.network.Reputation.Observe(e.Provider.Name, reputation.EventContractCompleted)
		}
	} else {
		e.network.Reputation.Observe(e.Provider.Name, reputation.EventAuditFailed)
	}
}
