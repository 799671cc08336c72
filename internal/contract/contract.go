// Package contract implements the smart-contract functionality of the
// paper's Fig. 2: a state machine that escrows deposits from the data owner
// and storage provider, issues periodic challenges from beacon randomness,
// verifies posted proofs on chain, settles micro-payments after every
// round, and resolves disputes by slashing.
//
// States extend Fig. 2 with a two-phase submit/settle protocol:
//
//	⊥ --negotiated--> ACK --acked--> FREEZE --freeze--> AUDIT
//	AUDIT --challenge--> PROVE --submit--> SETTLE --settle--> AUDIT (next round)
//
// plus terminal EXPIRED/ABORTED states. SubmitProof is the cheap phase:
// it records the provider's proof as a pending transaction (calldata gas
// only, no pairing work). Settlement — the audit verdict, payment release
// and slashing — fires at block inclusion, the way a real chain settles
// transactions when a block lands rather than at submission: Settle
// verifies one contract's pending proof, SettleBatch verifies every
// pending proof of a block with a single shared final exponentiation
// (core.VerifyBatch), bisecting on failure to isolate cheaters.
//
// Scheduling ("Ethereum Alarm Clock") is modeled by block-height triggers:
// the contract arms a trigger height and anyone may poke it once the chain
// reaches that height.
package contract

import (
	"errors"
	"fmt"
	"math/big"
	"strconv"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/parallel"
)

// State is the contract's phase.
type State int

// Contract states (Fig. 2's st variable).
const (
	StateInit    State = iota // ⊥: deployed, awaiting negotiation confirmation
	StateAck                  // negotiated; awaiting provider acknowledgment
	StateFreeze               // acked; awaiting both deposits
	StateAudit                // deposits locked; awaiting the next challenge trigger
	StateProve                // challenged; awaiting the provider's proof
	StateSettle               // proof posted; awaiting block-inclusion settlement
	StateExpired              // all rounds done; deposits returned
	StateAborted              // a party defaulted; deposits slashed
)

// Terminal reports whether the state is final (EXPIRED or ABORTED).
func (s State) Terminal() bool { return s == StateExpired || s == StateAborted }

// String renders the state name.
func (s State) String() string {
	switch s {
	case StateInit:
		return "INIT"
	case StateAck:
		return "ACK"
	case StateFreeze:
		return "FREEZE"
	case StateAudit:
		return "AUDIT"
	case StateProve:
		return "PROVE"
	case StateSettle:
		return "SETTLE"
	case StateExpired:
		return "EXPIRED"
	case StateAborted:
		return "ABORTED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Agreement holds the negotiated terms (Fig. 2's agrmts).
type Agreement struct {
	Owner            chain.Address
	Provider         chain.Address
	Rounds           int      // num: total audit rounds over the contract duration
	ChallengeSize    int      // k, number of challenged chunks per round
	RoundInterval    uint64   // blocks between audits (the tunable frequency)
	ProofDeadline    uint64   // blocks the provider has to respond
	PaymentPerRound  *big.Int // micro-payment released to the provider per passed round
	OwnerDeposit     *big.Int // prepaid payments escrowed by the owner
	ProviderDeposit  *big.Int // collateral slashed to the owner on failure
	NumChunks        int      // d, chunk count of the outsourced file
	PublicKey        *core.PublicKey
	PublicKeyPrivacy bool // whether the key was posted with the GT element (Fig. 4)
}

// RandomnessSource supplies per-round challenge entropy (the beacon).
type RandomnessSource interface {
	// Randomness returns at least 48 bytes of fresh entropy for round i.
	Randomness(round int) ([]byte, error)
}

// RoundRecord is the audit trail of one completed round. GasUsed is the
// round's total on-chain cost (proof submission plus settlement); SettleGas
// is the settlement share alone, which shrinks under batched settlement as
// the final exponentiation is amortized across a block.
type RoundRecord struct {
	Round     int
	Challenge *core.Challenge
	ProofSize int
	GasUsed   uint64
	SettleGas uint64
	Passed    bool
}

// Contract is one deployed audit contract instance.
type Contract struct {
	Addr  chain.Address
	Chain *chain.Chain
	Terms Agreement

	state         State
	round         int
	trigger       uint64 // block height that arms the next phase transition
	challenge     *core.Challenge
	verifyGas     uint64 // modeled execution gas per verification
	records       []RoundRecord
	rand          RandomnessSource
	ownerEscrow   *big.Int
	providerEsc   *big.Int
	storedKeySize int
	pendingProof  []byte // phase-1 proof bytes awaiting settlement
	pendingGas    uint64 // gas charged for the proof submission tx
}

// Errors surfaced by contract calls.
var (
	ErrWrongState       = errors.New("contract: call not valid in current state")
	ErrNotTrigger       = errors.New("contract: trigger height not reached")
	ErrWrongParty       = errors.New("contract: caller is not the expected party")
	ErrInvalidAgreement = errors.New("contract: invalid agreement")
	ErrMalformedProof   = errors.New("contract: pending proof is malformed")
)

// Deploy creates the contract in state INIT. verifyGas is the modeled
// execution gas of one on-chain verification (the cost package's Fig. 5
// extrapolation; ~589k for the 288-byte private proof).
func Deploy(c *chain.Chain, addr chain.Address, terms Agreement, rand RandomnessSource, verifyGas uint64) (*Contract, error) {
	if terms.Rounds < 1 || terms.ChallengeSize < 1 || terms.NumChunks < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrInvalidAgreement, terms)
	}
	if terms.PublicKey == nil {
		return nil, fmt.Errorf("%w: missing public key", ErrInvalidAgreement)
	}
	return &Contract{
		Addr:        addr,
		Chain:       c,
		Terms:       terms,
		state:       StateInit,
		rand:        rand,
		verifyGas:   verifyGas,
		ownerEscrow: new(big.Int),
		providerEsc: new(big.Int),
	}, nil
}

// State returns the current phase.
func (k *Contract) State() State { return k.state }

// Round returns the number of completed audit rounds.
func (k *Contract) Round() int { return k.round }

// Records returns the audit trail.
func (k *Contract) Records() []RoundRecord { return append([]RoundRecord(nil), k.records...) }

// Negotiate is the owner posting agrmts, params (the public key) and
// metadata on chain ("On receive negotiated"). The serialized public key is
// charged as calldata plus contract storage: the Fig. 4 one-time cost.
func (k *Contract) Negotiate() error {
	if k.state != StateInit {
		return fmt.Errorf("%w: %s", ErrWrongState, k.state)
	}
	pkBytes, err := k.Terms.PublicKey.Marshal(k.Terms.PublicKeyPrivacy)
	if err != nil {
		return err
	}
	k.storedKeySize = len(pkBytes)
	_, err = k.Chain.Submit(&chain.Tx{
		From:     k.Terms.Owner,
		To:       k.Addr,
		Data:     pkBytes,
		ExtraGas: k.Chain.Config().Gas.StorageGas(len(pkBytes)),
		Note:     "negotiated: post params+metadata",
	})
	if err != nil {
		return err
	}
	k.state = StateAck
	k.Chain.Emit("negotiated", nil)
	return nil
}

// StoredKeyBytes reports the size of the on-chain public key (Fig. 4).
func (k *Contract) StoredKeyBytes() int { return k.storedKeySize }

// Acknowledge is the provider accepting the terms after validating the
// authenticators off-chain ("On receive acked"). accept=false aborts the
// contract before deposits (the denial-of-service case of Section VI-A).
func (k *Contract) Acknowledge(from chain.Address, accept bool) error {
	if k.state != StateAck {
		return fmt.Errorf("%w: %s", ErrWrongState, k.state)
	}
	if from != k.Terms.Provider {
		return ErrWrongParty
	}
	if _, err := k.Chain.Submit(&chain.Tx{From: from, To: k.Addr, Note: "acked"}); err != nil {
		return err
	}
	if !accept {
		k.state = StateAborted
		k.Chain.Emit("rejected", nil)
		return nil
	}
	k.state = StateFreeze
	k.Chain.Emit("acked", nil)
	return nil
}

// Freeze locks both deposits ("On receive freeze"), arms the first
// challenge trigger and moves to AUDIT.
func (k *Contract) Freeze() error {
	if k.state != StateFreeze {
		return fmt.Errorf("%w: %s", ErrWrongState, k.state)
	}
	if err := k.Chain.Lock(k.Terms.Owner, k.Terms.OwnerDeposit); err != nil {
		return err
	}
	if err := k.Chain.Lock(k.Terms.Provider, k.Terms.ProviderDeposit); err != nil {
		// Roll back the owner's lock so funds are not stranded.
		_ = k.Chain.Unlock(k.Terms.Owner, k.Terms.OwnerDeposit, k.Terms.Owner)
		return err
	}
	k.ownerEscrow.Set(k.Terms.OwnerDeposit)
	k.providerEsc.Set(k.Terms.ProviderDeposit)
	if _, err := k.Chain.Submit(&chain.Tx{From: k.Terms.Owner, To: k.Addr, Note: "freeze"}); err != nil {
		return err
	}
	k.state = StateAudit
	k.trigger = k.Chain.Height() + k.Terms.RoundInterval
	k.Chain.Emit("inited", nil)
	return nil
}

// TriggerHeight returns the block height at which the next scheduled action
// (challenge issue or proof deadline) fires.
func (k *Contract) TriggerHeight() uint64 { return k.trigger }

// IssueChallenge fires the scheduled "Chal" action once the trigger height
// is reached: it draws beacon randomness, derives (C1, C2, r), stores the 48
// challenge bytes on chain and moves to PROVE.
func (k *Contract) IssueChallenge() (*core.Challenge, error) {
	if k.state != StateAudit {
		return nil, fmt.Errorf("%w: %s", ErrWrongState, k.state)
	}
	if k.Chain.Height() < k.trigger {
		return nil, fmt.Errorf("%w: height %d < %d", ErrNotTrigger, k.Chain.Height(), k.trigger)
	}
	if k.round >= k.Terms.Rounds {
		return nil, k.expire()
	}
	seed, err := k.rand.Randomness(k.round)
	if err != nil {
		return nil, fmt.Errorf("contract: beacon failure: %w", err)
	}
	if len(seed) < 48 {
		return nil, fmt.Errorf("contract: beacon returned %d bytes, need 48", len(seed))
	}
	ch := &core.Challenge{K: k.Terms.ChallengeSize}
	copy(ch.C1[:], seed[0:16])
	copy(ch.C2[:], seed[16:32])
	copy(ch.R[:], seed[32:48])
	k.challenge = ch

	if _, err := k.Chain.Submit(&chain.Tx{
		From: k.Addr, To: k.Addr,
		Data: ch.Marshal(),
		Note: "challenge round " + strconv.Itoa(k.round),
	}); err != nil {
		return nil, err
	}
	k.state = StateProve
	k.trigger = k.Chain.Height() + k.Terms.ProofDeadline
	k.Chain.Emit("challenged", ch.Marshal())
	return ch, nil
}

// CurrentChallenge returns the open challenge while in PROVE or SETTLE.
func (k *Contract) CurrentChallenge() *core.Challenge { return k.challenge }

// SubmitProof is phase 1 of the two-phase settlement protocol: the provider
// posting its 288-byte private proof. The proof is recorded as a pending
// transaction — calldata gas only, no pairing work — and the contract moves
// to SETTLE, awaiting the verdict at block inclusion (Settle or
// SettleBatch).
func (k *Contract) SubmitProof(from chain.Address, proofBytes []byte) error {
	if k.state != StateProve {
		return fmt.Errorf("%w: %s", ErrWrongState, k.state)
	}
	if from != k.Terms.Provider {
		return ErrWrongParty
	}
	rcpt, err := k.Chain.Submit(&chain.Tx{
		From: from,
		To:   k.Addr,
		Data: proofBytes,
		Note: "proof round " + strconv.Itoa(k.round),
	})
	if err != nil {
		return err
	}
	k.pendingProof = append([]byte(nil), proofBytes...)
	k.pendingGas = rcpt.GasUsed
	k.state = StateSettle
	k.Chain.Emit("proofposted", nil)
	return nil
}

// PendingItem returns the batch-verification inputs of the proof awaiting
// settlement. A proof that fails to parse returns ErrMalformedProof; the
// settlement engine fails such a contract without any pairing work.
func (k *Contract) PendingItem() (*core.BatchItem, error) {
	if k.state != StateSettle {
		return nil, fmt.Errorf("%w: %s", ErrWrongState, k.state)
	}
	proof, err := core.UnmarshalPrivateProof(k.pendingProof)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedProof, err)
	}
	return &core.BatchItem{
		Pub:       k.Terms.PublicKey,
		NumChunks: k.Terms.NumChunks,
		Challenge: k.challenge,
		Proof:     proof,
	}, nil
}

// Settle is phase 2 for a single contract: it runs the scheduled Verify
// step over the pending proof and applies the verdict — on success the
// round payment moves from the owner's escrow to the provider; on failure
// the provider's whole collateral is slashed to the owner and the contract
// aborts (the dispute outcome of Fig. 2). Blocks settling together should
// use SettleBatch, which shares one final exponentiation across all of
// them.
func (k *Contract) Settle() (bool, error) {
	return k.SettleAt(k.Chain.Height())
}

// SettleAt is Settle with the settlement height pinned explicitly: the next
// audit trigger arms relative to height instead of the live chain head. A
// pipelined driver that keeps mining while earlier blocks settle passes the
// settled block's inclusion height here, so the audit cadence is identical
// whether settlement runs inline or overlapped.
func (k *Contract) SettleAt(height uint64) (bool, error) {
	item, err := k.PendingItem()
	if err != nil {
		if errors.Is(err, ErrMalformedProof) {
			// A parse rejection never reaches the pairing step: the same
			// no-gas slashing policy SettleBatch applies.
			return false, k.applyVerdictAt(false, 0, height)
		}
		return false, err
	}
	passed := core.VerifyPrivate(item.Pub, item.NumChunks, item.Challenge, item.Proof)
	return passed, k.applyVerdictAt(passed, k.verifyGas, height)
}

// SettleTrustedAt applies a settlement verdict directly, skipping proof
// verification (and its gas) entirely: the pending proof is accepted or
// rejected on the caller's word. It exists for scale harnesses — a soak run
// driving 100k engagements cannot pay a pairing per round, and the
// scheduling machinery under test is independent of the verdict's
// provenance. It is NOT part of the protocol: a deployment that trusted the
// caller here would have no audit at all.
func (k *Contract) SettleTrustedAt(passed bool, height uint64) (bool, error) {
	if k.state != StateSettle {
		return false, fmt.Errorf("%w: %s", ErrWrongState, k.state)
	}
	return passed, k.applyVerdictAt(passed, 0, height)
}

// SettleResult reports one contract's outcome from a batched settlement.
type SettleResult struct {
	Addr   chain.Address
	Passed bool
	Err    error // settlement plumbing error (wrong state, chain fault) — not the verdict
}

// SettleBatch is phase 2 for a whole block: every pending proof is checked
// by a single core.VerifyBatch call (two Miller loops per distinct owner key
// in the block plus one shared loop, one shared final exponentiation). On
// batch failure the verification bisects, so one cheater among N honest
// providers is individually slashed while the rest settle as passed.
// Contracts whose pending bytes do not parse are failed without pairing work;
// contracts not in SETTLE get a per-contract ErrWrongState. Results are
// returned in input order. stats may be nil.
//
// Security of the batching: each item's equation binds its own
// zeta_i = H'(R_i), and the items are additionally weighted by independent
// verifier-chosen ~128-bit scalars (see core.BatchVerify), so a cheater
// cannot hide behind honest co-batched proofs — a failed batch always
// bisects down to the genuine offender.
func SettleBatch(cs []*Contract, stats *core.BatchStats) []SettleResult {
	var height uint64
	if len(cs) > 0 {
		height = cs[0].Chain.Height()
	}
	return SettleBatchAt(cs, height, 0, stats)
}

// SettleBatchAt is SettleBatch with the settlement height pinned (see
// SettleAt) and the verification workload bounded to workers goroutines
// (<= 0 selects GOMAXPROCS): pending proofs parse in parallel across the
// block and the batched verification fans its per-item challenge expansion,
// its block-level sums and its Miller loops out via core.VerifyBatchParallel.
// Verdicts, result order and the chain transaction sequence are identical at
// any worker count.
func SettleBatchAt(cs []*Contract, height uint64, workers int, stats *core.BatchStats) []SettleResult {
	results := make([]SettleResult, len(cs))
	// Parse every pending proof in parallel: unmarshaling N private proofs
	// (two group points and a GT element each) is the settle path's serial
	// prefix. Verdict application below stays in input order.
	parsed := make([]*core.BatchItem, len(cs))
	parseErrs := make([]error, len(cs))
	parallel.For(workers, len(cs), func(i int) {
		if cs[i].state == StateSettle {
			parsed[i], parseErrs[i] = cs[i].PendingItem()
		}
	})
	var items []*core.BatchItem
	var owners []int // position in cs of each batch item
	for i, k := range cs {
		results[i].Addr = k.Addr
		if k.state != StateSettle {
			results[i].Err = fmt.Errorf("%w: %s", ErrWrongState, k.state)
			continue
		}
		if parseErrs[i] != nil {
			// Malformed proof: slashed without any pairing work.
			results[i].Passed = false
			results[i].Err = k.applyVerdictAt(false, 0, height)
			continue
		}
		items = append(items, parsed[i])
		owners = append(owners, i)
	}
	verdicts := core.VerifyBatchParallel(items, stats, workers)
	for j, passed := range verdicts {
		i := owners[j]
		k := cs[i]
		// Honest items pay the amortized batch share; a failed item pays
		// the full per-proof verification it forced through bisection.
		gas := k.settleGasShare(len(items))
		if !passed {
			gas = k.verifyGas
		}
		results[i].Passed = passed
		results[i].Err = k.applyVerdictAt(passed, gas, height)
	}
	return results
}

// finalExpNum/finalExpDen model the final exponentiation's share (~30%) of
// a full four-pairing verification; batched settlement charges each
// contract its Miller-loop share plus 1/N of one final exponentiation.
const (
	finalExpNum = 3
	finalExpDen = 10
)

// settleGasShare returns the modeled execution gas of verifying one proof
// inside a batch of n.
func (k *Contract) settleGasShare(n int) uint64 {
	if n < 1 {
		n = 1
	}
	fe := k.verifyGas * finalExpNum / finalExpDen
	return (k.verifyGas - fe) + fe/uint64(n)
}

// applyVerdictAt lands the settlement on chain: it records the round,
// charges the settlement gas, releases the round payment or slashes the
// collateral, and arms the next trigger relative to the given settlement
// height (or terminates the contract). Pinning the height — rather than
// reading the live chain head — keeps the audit cadence deterministic when
// settlement runs concurrently with block production.
func (k *Contract) applyVerdictAt(passed bool, settleGas uint64, height uint64) error {
	rcpt, err := k.Chain.Submit(&chain.Tx{
		From:     k.Addr,
		To:       k.Addr,
		ExtraGas: settleGas,
		Note:     "settle round " + strconv.Itoa(k.round),
	})
	if err != nil {
		return err
	}
	k.records = append(k.records, RoundRecord{
		Round:     k.round,
		Challenge: k.challenge,
		ProofSize: len(k.pendingProof),
		GasUsed:   k.pendingGas + rcpt.GasUsed,
		SettleGas: rcpt.GasUsed,
		Passed:    passed,
	})
	k.round++
	k.challenge = nil
	k.pendingProof = nil
	k.pendingGas = 0

	// The state machine advances before any funds move: a chain fault in a
	// transfer below still surfaces as an error, but can never strand the
	// contract in SETTLE where a later settlement pass would re-judge (and
	// wrongly slash) a round whose verdict is already recorded.
	if !passed {
		k.Chain.Emit("fail", nil)
		return k.settleFailure()
	}
	k.Chain.Emit("pass", nil)
	if k.round >= k.Terms.Rounds {
		k.state = StateExpired
		if err := k.payProvider(); err != nil {
			return err
		}
		return k.expire()
	}
	k.state = StateAudit
	k.trigger = height + k.Terms.RoundInterval
	return k.payProvider()
}

// MissDeadline fires when the proof deadline passes with no proof: treated
// as an audit failure (the provider cannot stall forever).
func (k *Contract) MissDeadline() error {
	if k.state != StateProve {
		return fmt.Errorf("%w: %s", ErrWrongState, k.state)
	}
	if k.Chain.Height() < k.trigger {
		return fmt.Errorf("%w: height %d < deadline %d", ErrNotTrigger, k.Chain.Height(), k.trigger)
	}
	k.records = append(k.records, RoundRecord{
		Round:     k.round,
		Challenge: k.challenge,
		Passed:    false,
	})
	k.round++
	k.challenge = nil
	k.Chain.Emit("fail", []byte("deadline"))
	return k.settleFailure()
}

// payProvider releases one round's micro-payment from the owner's escrow.
func (k *Contract) payProvider() error {
	pay := k.Terms.PaymentPerRound
	if k.ownerEscrow.Cmp(pay) < 0 {
		pay = new(big.Int).Set(k.ownerEscrow)
	}
	if pay.Sign() == 0 {
		return nil
	}
	if err := k.Chain.Unlock(k.Terms.Owner, pay, k.Terms.Provider); err != nil {
		return err
	}
	k.ownerEscrow.Sub(k.ownerEscrow, pay)
	return nil
}

// settleFailure slashes the provider's collateral to the owner, refunds the
// owner's remaining escrow, and terminates the contract. The terminal state
// lands before the transfers so a chain fault cannot leave the contract
// re-enterable.
func (k *Contract) settleFailure() error {
	k.state = StateAborted
	if k.providerEsc.Sign() > 0 {
		if err := k.Chain.Unlock(k.Terms.Provider, k.providerEsc, k.Terms.Owner); err != nil {
			return err
		}
		k.providerEsc.SetInt64(0)
	}
	return k.refundOwner()
}

// expire ends a fully-served contract: both residual escrows return home.
// Like settleFailure, the terminal state lands before the transfers.
func (k *Contract) expire() error {
	k.state = StateExpired
	if k.providerEsc.Sign() > 0 {
		if err := k.Chain.Unlock(k.Terms.Provider, k.providerEsc, k.Terms.Provider); err != nil {
			return err
		}
		k.providerEsc.SetInt64(0)
	}
	if err := k.refundOwner(); err != nil {
		return err
	}
	k.Chain.Emit("expired", nil)
	return nil
}

func (k *Contract) refundOwner() error {
	if k.ownerEscrow.Sign() > 0 {
		if err := k.Chain.Unlock(k.Terms.Owner, k.ownerEscrow, k.Terms.Owner); err != nil {
			return err
		}
		k.ownerEscrow.SetInt64(0)
	}
	return nil
}
