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
// transactions when a block lands rather than at submission:
// SettleBatchAt verifies every pending proof of a block with one shared
// final exponentiation (core.VerifyPrepared), isolating cheaters on
// failure, and lands the block's verdicts in one settlement transaction,
// split into consecutive ones only where a single one would exceed the
// block gas limit; MissDeadline settles a round whose proof never came.
//
// Scheduling ("Ethereum Alarm Clock") is modeled by block-height triggers:
// the contract arms a trigger height and anyone may poke it once the chain
// reaches that height. IssueChallenges pokes every due challenge trigger of
// a height at once, and their challenges land in one challenge transaction
// from the audit-trigger keeper.
package contract

import (
	"crypto/sha256"
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
	stateInit    State = iota // ⊥: deployed, awaiting negotiation confirmation
	stateAck                  // negotiated; awaiting provider acknowledgment
	stateFreeze               // acked; awaiting both deposits
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
	case stateInit:
		return "INIT"
	case stateAck:
		return "ACK"
	case stateFreeze:
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

	prepared *core.PreparedProof // the pending proof's per-item verification step, if attached
}

// Errors surfaced by contract calls.
var (
	errWrongState       = errors.New("contract: call not valid in current state")
	errNotTrigger       = errors.New("contract: trigger height not reached")
	errWrongParty       = errors.New("contract: caller is not the expected party")
	errInvalidAgreement = errors.New("contract: invalid agreement")
	errMalformedProof   = errors.New("contract: pending proof is malformed")
)

// Deploy creates the contract in state INIT. verifyGas is the modeled
// execution gas of one on-chain verification (the cost package's Fig. 5
// extrapolation; ~589k for the 288-byte private proof).
func Deploy(c *chain.Chain, addr chain.Address, terms Agreement, rand RandomnessSource, verifyGas uint64) (*Contract, error) {
	if terms.Rounds < 1 || terms.ChallengeSize < 1 || terms.NumChunks < 1 {
		return nil, fmt.Errorf("%w: %+v", errInvalidAgreement, terms)
	}
	if terms.PublicKey == nil {
		return nil, fmt.Errorf("%w: missing public key", errInvalidAgreement)
	}
	k := &Contract{
		Addr:        addr,
		Chain:       c,
		Terms:       terms,
		state:       stateInit,
		rand:        rand,
		verifyGas:   verifyGas,
		ownerEscrow: new(big.Int),
		providerEsc: new(big.Int),
	}
	if c.Logging() {
		if err := k.logDeploy(); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// State returns the current phase.
func (k *Contract) State() State { return k.state }

// Round returns the number of completed audit rounds.
func (k *Contract) Round() int { return k.round }

// Records returns the audit trail.
func (k *Contract) Records() []RoundRecord { return append([]RoundRecord(nil), k.records...) }

// Negotiate is the owner posting agrmts, params (the public key) and
// metadata on chain ("On receive negotiated"). The key is chain state
// addressed by content. Its body, the encoding minus the file's Name
// (core.PublicKey.KeyBody, encoded once per key, not once per contract), is
// kept once per chain under its SHA-256 digest, and the contract keeps a
// two-word reference to it: the digest and the Name. The first contract
// under a body posts the body beside the reference and pays calldata and
// storage for both; that is the Fig. 4 one-time cost, paid once per owner
// key. Every later contract of the body posts and stores only the 64-byte
// reference. Verification runs under Terms.PublicKey either way.
func (k *Contract) Negotiate() error {
	if k.state != stateInit {
		return fmt.Errorf("%w: %s", errWrongState, k.state)
	}
	body, name, err := k.Terms.PublicKey.KeyBody(k.Terms.PublicKeyPrivacy)
	if err != nil {
		return err
	}
	k.storedKeySize = len(body) + len(name)
	_, err = k.Chain.SubmitReferencing(body, &chain.Tx{
		From:     k.Terms.Owner,
		To:       k.Addr,
		Data:     name[:],
		ExtraGas: k.Chain.Config().Gas.StorageGas(sha256.Size + len(name)),
		Note:     "negotiated: post key reference+metadata",
	}, k.op(opNegotiate))
	if err != nil {
		return err
	}
	k.state = stateAck
	k.Chain.Emit("negotiated", nil)
	return nil
}

// StoredKeyBytes reports the size of the public key's on-chain form
// (Fig. 4): the body the chain keeps once per owner key, plus the Name.
func (k *Contract) StoredKeyBytes() int { return k.storedKeySize }

// Acknowledge is the provider accepting the terms after validating the
// authenticators off-chain ("On receive acked"). accept=false aborts the
// contract before deposits (the denial-of-service case of Section VI-A).
func (k *Contract) Acknowledge(from chain.Address, accept bool) error {
	if k.state != stateAck {
		return fmt.Errorf("%w: %s", errWrongState, k.state)
	}
	if from != k.Terms.Provider {
		return errWrongParty
	}
	if _, err := k.Chain.SubmitOp(&chain.Tx{From: from, To: k.Addr, Note: "acked"}, k.ackOp(accept)); err != nil {
		return err
	}
	if !accept {
		k.state = StateAborted
		k.Chain.Emit("rejected", nil)
		return nil
	}
	k.state = stateFreeze
	k.Chain.Emit("acked", nil)
	return nil
}

// Freeze locks both deposits ("On receive freeze"), arms the first
// challenge trigger and moves to AUDIT.
func (k *Contract) Freeze() error {
	if k.state != stateFreeze {
		return fmt.Errorf("%w: %s", errWrongState, k.state)
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
	if _, err := k.Chain.SubmitOp(&chain.Tx{From: k.Terms.Owner, To: k.Addr, Note: "freeze"}, k.op(opFreeze)); err != nil {
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

// ChallengeResult reports one contract's outcome from IssueChallenges.
type ChallengeResult struct {
	Challenge *core.Challenge // nil when the contract expired instead, or on Err
	Err       error
}

// auditTrigger is the address every challenge transaction goes from and to:
// the keeper that fires a height's "Chal" triggers, not any one contract. It
// chooses nothing; each challenge it carries is its contract's beacon draw.
const auditTrigger chain.Address = "audit-trigger"

// challengeSize is a challenge's on-chain form: C1 ‖ C2 ‖ r.
const challengeSize = 48

// IssueChallenges fires the due "Chal" actions of many contracts together.
// Each contract does its own part first, in input order: the state and
// trigger checks, expiry when its rounds are exhausted (logged, with no
// transaction) and its own beacon draw of (C1, C2, r). Then one challenge
// transaction per chain carries the drawn challenges, its calldata their 48
// bytes each in input order, so every round's challenge is on chain byte for
// byte; it carries no execution gas, and it is split into consecutive
// transactions only where a single one would exceed the block gas limit. A
// transaction is submitted before any of its contracts moves to PROVE; if
// the chain refuses it (a chain-log fault), each of its contracts stays in
// AUDIT and reports the error. A contract not in AUDIT, or one already
// challenged earlier in the call, gets ErrWrongState and is in no
// transaction. Results are in input order.
func IssueChallenges(cs []*Contract) []ChallengeResult {
	results := make([]ChallengeResult, len(cs))
	// The contracts that drew a challenge, in input order; a tick of up to
	// 16 lists them without a heap allocation.
	drawn := make([]int, 0, 16)
	for i, k := range cs {
		ch, err := k.drawChallenge()
		results[i] = ChallengeResult{Challenge: ch, Err: err}
		if err == nil && ch != nil {
			drawn = append(drawn, i)
		}
	}
	chainOf := func(i int) *chain.Chain { return cs[i].Chain }
	for len(drawn) > 0 {
		c := cs[drawn[0]].Chain
		own, rest := onChain(drawn, chainOf, c)
		challengeTxs(c, cs, own, results)
		drawn = rest
	}
	return results
}

// drawChallenge is k's own part of the "Chal" action: the state and trigger
// checks, then expiry (a nil challenge) or the beacon draw. A drawn
// challenge is held as k's open one until its transaction is submitted.
func (k *Contract) drawChallenge() (*core.Challenge, error) {
	if k.state != StateAudit {
		return nil, fmt.Errorf("%w: %s", errWrongState, k.state)
	}
	if k.challenge != nil {
		return nil, fmt.Errorf("%w: challenged twice in one call", errWrongState)
	}
	if k.Chain.Height() < k.trigger {
		return nil, fmt.Errorf("%w: height %d < %d", errNotTrigger, k.Chain.Height(), k.trigger)
	}
	if k.round >= k.Terms.Rounds {
		if err := k.expire(); err != nil {
			return nil, err
		}
		return nil, k.Chain.LogOp(k.op(opChallenge), nil)
	}
	seed, err := k.rand.Randomness(k.round)
	if err != nil {
		return nil, fmt.Errorf("contract: beacon failure: %w", err)
	}
	if len(seed) < challengeSize {
		return nil, fmt.Errorf("contract: beacon returned %d bytes, need %d", len(seed), challengeSize)
	}
	ch := &core.Challenge{K: k.Terms.ChallengeSize}
	copy(ch.C1[:], seed[0:16])
	copy(ch.C2[:], seed[16:32])
	copy(ch.R[:], seed[32:48])
	k.challenge = ch
	return ch, nil
}

// challengeTxs submits the challenge transactions on c for the contracts at
// idx, as few as the block gas limit allows, each followed by its contracts'
// move to PROVE.
func challengeTxs(c *chain.Chain, cs []*Contract, idx []int, results []ChallengeResult) {
	data := make([]byte, 0, len(idx)*challengeSize)
	for _, i := range idx {
		ch := results[i].Challenge
		data = append(append(append(data, ch.C1[:]...), ch.C2[:]...), ch.R[:]...)
	}
	g := c.Config().Gas
	for len(idx) > 0 {
		n := fitTx(c, len(idx), func(j int) uint64 { return g.CalldataGas(data[j*challengeSize : (j+1)*challengeSize]) })
		end := n * challengeSize
		_, err := c.SubmitOp(&chain.Tx{
			From: auditTrigger, To: auditTrigger,
			Data: data[:end:end],
			Note: "challenges",
		}, challengeOp(c, cs, idx[:n]))
		for _, i := range idx[:n] {
			k := cs[i]
			if err != nil {
				k.challenge = nil
				results[i] = ChallengeResult{Err: err}
				continue
			}
			k.state = StateProve
			k.trigger = c.Height() + k.Terms.ProofDeadline
			// The event gets its own copy: a slice of the calldata would keep
			// the whole transaction's challenges alive with it.
			c.Emit("challenged", results[i].Challenge.Marshal())
		}
		idx, data = idx[n:], data[end:]
	}
}

// CurrentChallenge returns the open challenge while in PROVE or SETTLE.
func (k *Contract) CurrentChallenge() *core.Challenge { return k.challenge }

// SubmitProof is phase 1 of the two-phase settlement protocol: the provider
// posting its 288-byte private proof. The proof is recorded as a pending
// transaction — calldata gas only, no pairing work, nothing refused — and the
// contract moves to SETTLE, awaiting the verdict at block inclusion
// (SettleBatchAt).
func (k *Contract) SubmitProof(from chain.Address, proofBytes []byte) error {
	if k.state != StateProve {
		return fmt.Errorf("%w: %s", errWrongState, k.state)
	}
	if from != k.Terms.Provider {
		return errWrongParty
	}
	rcpt, err := k.Chain.SubmitOp(&chain.Tx{
		From: from,
		To:   k.Addr,
		Data: proofBytes,
		Note: "proof round " + strconv.Itoa(k.round),
	}, k.proofOp(proofBytes))
	if err != nil {
		return err
	}
	k.pendingProof = append([]byte(nil), proofBytes...)
	k.pendingGas = rcpt.GasUsed
	k.prepared = nil
	k.state = StateSettle
	k.Chain.Emit("proofposted", nil)
	return nil
}

// AttachPrepared hands the contract the per-item step of verifying its
// pending proof (core.PrepareProof), made off the settlement path by whoever
// received the proof. Batched settlement uses it only if it was made from
// exactly the pending bytes and the open challenge, and otherwise prepares
// from its own bytes, so an attached item can save a verdict its work but
// never change it. The verdict drops it. Outside SETTLE it is ignored.
func (k *Contract) AttachPrepared(p *core.PreparedProof) {
	if k.state == StateSettle {
		k.prepared = p
	}
}

// boundPrepared returns the attached item if it was made from the pending
// proof against the open challenge.
func (k *Contract) boundPrepared() *core.PreparedProof {
	if p := k.prepared; p != nil && p.Matches(k.Terms.PublicKey, k.Terms.NumChunks, k.challenge, k.pendingProof) {
		return p
	}
	return nil
}

// pendingPrepared returns the per-item step over the pending proof: the
// attached item when it is bound to it, else one prepared here by the same
// function. A proof that fails to decode returns ErrMalformedProof.
func (k *Contract) pendingPrepared() (*core.PreparedProof, error) {
	if p := k.boundPrepared(); p != nil {
		return p, nil
	}
	p, err := core.PrepareProof(k.Terms.PublicKey, k.Terms.NumChunks, k.challenge, k.pendingProof)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errMalformedProof, err)
	}
	return p, nil
}

// SettleResult reports one contract's outcome from a batched settlement.
type SettleResult struct {
	Addr   chain.Address
	Passed bool
	Err    error // settlement plumbing error (wrong state, chain fault) — not the verdict
}

// SettleBatchAt is phase 2 for a whole block, and the only way a pending
// proof reaches a verdict: every pending proof is checked by one
// core.VerifyPrepared call (two Miller loops per distinct owner key in the
// block plus one shared loop, one shared final exponentiation), isolating
// cheaters on failure — a lone one with one more evaluation — so one cheater
// among N honest providers is individually slashed while the rest settle as
// passed. A pass moves the round payment from the owner's escrow to the
// provider; a failure slashes the provider's collateral to the owner and
// aborts the contract (Fig. 2's dispute). The verdicts land through
// SettleVerdictsAt, in one settlement transaction for the block (more when
// they would exceed the block gas limit), so a one-contract block charges
// exactly one verification's gas plus one transaction's.
//
// Each proof's per-item step is the one attached to it (AttachPrepared) when
// that is bound to it; the rest are prepared here, in parallel. Contracts
// whose pending bytes do not parse are failed without pairing work; contracts
// not in SETTLE get ErrWrongState. height pins the next audit trigger, so a
// driver that keeps mining while a block settles passes the block's inclusion
// height; workers bounds the goroutines (<= 0 selects GOMAXPROCS). Verdicts,
// result order (input order) and the chain transactions are identical at any
// worker count, prepared or not. stats may be nil.
//
// Security of the batching: each item's equation binds its own
// zeta_i = H'(R_i), and the items are additionally weighted by independent
// verifier-chosen ~128-bit scalars (see core/batch.go), so a cheater
// cannot hide behind honest co-batched proofs — a failed batch is always
// searched down to the genuine offender.
func SettleBatchAt(cs []*Contract, height uint64, workers int, stats *core.BatchStats) []SettleResult {
	prepared := make([]*core.PreparedProof, len(cs))
	parseErrs := make([]error, len(cs))
	if stats != nil {
		for _, k := range cs {
			if k.state == StateSettle && k.boundPrepared() == nil {
				stats.Prepares++
			}
		}
	}
	parallel.For(workers, len(cs), func(i int) {
		if cs[i].state == StateSettle {
			prepared[i], parseErrs[i] = cs[i].pendingPrepared()
		}
	})
	// A malformed proof fails without any pairing work and pays none, and a
	// contract not in SETTLE is refused by SettleVerdictsAt.
	vs := make([]Verdict, len(cs))
	var items []*core.PreparedProof
	var owners []int // position in cs of each batch item
	for i, k := range cs {
		vs[i].Contract = k
		if k.state == StateSettle && parseErrs[i] == nil {
			items = append(items, prepared[i])
			owners = append(owners, i)
		}
	}
	for j, passed := range core.VerifyPrepared(items, stats, workers) {
		v := &vs[owners[j]]
		// Honest items pay the amortized batch share; a failed item pays
		// the full per-proof verification, whatever its search cost.
		v.Passed, v.Gas = passed, v.Contract.settleGasShare(len(items))
		if !passed {
			v.Gas = v.Contract.verifyGas
		}
	}
	return SettleVerdictsAt(vs, height)
}

// Verdict is one contract's entry in a settlement transaction: the verdict
// on its pending proof and the verification gas it pays.
type Verdict struct {
	Contract *Contract
	Passed   bool
	Gas      uint64
}

// batchVerifier is the address every settlement transaction goes to: the
// verifier that checks a sealed block's proofs together, not any one
// contract.
const batchVerifier chain.Address = "batch-verifier"

// SettleVerdictsAt lands verdicts on chain: one settlement transaction per
// chain for all of them, in input order, then each contract's verdict — the
// round record, the payment or the slash, the next trigger or the terminal
// state. The transaction carries no calldata, since each proof it settles is
// already on chain in its own SubmitProof transaction, and its execution gas
// is the sum of the verdicts' Gas. A settlement that would exceed the block
// gas limit is split into consecutive transactions in input order, each
// carrying as many verdicts as fit. Each record's SettleGas is its verdict's
// Gas plus an equal share of its transaction's base gas, the remainder to the
// transaction's first contract, so a transaction's records sum to its gas;
// a one-contract transaction charges its contract exactly the gas of a
// settlement of its own. A transaction is submitted before any of its
// verdicts lands; if the chain refuses it (a chain-log fault), none does,
// and each of its contracts reports the error, as a reverted transaction
// would. Contracts not in SETTLE get ErrWrongState and are in no
// transaction.
//
// It is SettleBatchAt's last step, and it takes the verdicts on the caller's
// word. Its other callers are Replay, which re-applies the settlements a
// chain log recorded, and scale harnesses, which pass every proof with gas 0:
// a soak run driving 100k engagements cannot pay a pairing per round, and the
// scheduling machinery under test is independent of the verdict's
// provenance. Called on its own it is NOT part of the protocol: a deployment
// that trusted its caller would have no audit at all.
func SettleVerdictsAt(vs []Verdict, height uint64) []SettleResult {
	results := make([]SettleResult, len(vs))
	// The contracts in SETTLE, in input order; a block of up to 16 lists
	// them without a heap allocation.
	pending := make([]int, 0, 16)
	for i, v := range vs {
		k := v.Contract
		if k.state != StateSettle {
			results[i] = SettleResult{Addr: k.Addr, Err: fmt.Errorf("%w: %s", errWrongState, k.state)}
			continue
		}
		results[i] = SettleResult{Addr: k.Addr, Passed: v.Passed}
		pending = append(pending, i)
	}
	// A block is one chain's; verdicts from several chains get one
	// settlement per chain, in order of first appearance.
	chainOf := func(i int) *chain.Chain { return vs[i].Contract.Chain }
	for len(pending) > 0 {
		c := vs[pending[0]].Contract.Chain
		own, rest := onChain(pending, chainOf, c)
		for len(own) > 0 {
			n := fitTx(c, len(own), func(j int) uint64 { return vs[own[j]].Gas })
			settleTxAt(c, vs, own[:n], height, results)
			own = own[n:]
		}
		pending = rest
	}
	return results
}

// onChain splits idx into the positions whose contract chainOf puts on c
// and the rest, each in order. When all are on c it returns idx itself.
func onChain(idx []int, chainOf func(int) *chain.Chain, c *chain.Chain) (own, rest []int) {
	for _, i := range idx {
		if chainOf(i) != c {
			for _, i := range idx {
				if chainOf(i) == c {
					own = append(own, i)
				} else {
					rest = append(rest, i)
				}
			}
			return own, rest
		}
	}
	return idx, nil
}

// fitTx returns how many of n entries, from the front, one transaction on c
// carries when entry j adds gas(j) to it: as many as keep its gas within the
// block gas limit, and at least one.
func fitTx(c *chain.Chain, n int, gas func(j int) uint64) int {
	cfg := c.Config()
	room := cfg.BlockGasLimit - min(cfg.BlockGasLimit, cfg.Gas.TxBase)
	j := 0
	for ; j < n; j++ {
		g := gas(j)
		if g > room {
			break
		}
		room -= g
	}
	return max(j, 1)
}

// settleTxAt submits one settlement transaction on c for the verdicts at
// idx, then lands each of them.
func settleTxAt(c *chain.Chain, vs []Verdict, idx []int, height uint64, results []SettleResult) {
	var extra uint64
	for _, i := range idx {
		extra += vs[i].Gas
	}
	rcpt, err := c.SubmitOp(&chain.Tx{
		From:     batchVerifier,
		To:       batchVerifier,
		ExtraGas: extra,
		Note:     "settle block",
	}, settleOp(c, vs, idx, height))
	if err != nil {
		for _, i := range idx {
			results[i].Err = err
		}
		return
	}
	base := rcpt.GasUsed - extra
	share := base / uint64(len(idx))
	for j, i := range idx {
		gas := vs[i].Gas + share
		if j == 0 {
			gas += base - share*uint64(len(idx))
		}
		results[i].Err = vs[i].Contract.applyVerdictAt(vs[i].Passed, gas, height)
	}
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

// applyVerdictAt lands a verdict whose settlement transaction is on chain,
// settleGas being the contract's share of it: it records the round, releases
// the round payment or slashes the collateral, and arms the next trigger
// relative to the given settlement height (or terminates the contract).
// Pinning the height — rather than reading the live chain head — keeps the
// audit cadence deterministic when settlement runs concurrently with block
// production.
func (k *Contract) applyVerdictAt(passed bool, settleGas uint64, height uint64) error {
	if k.state != StateSettle {
		// The same contract twice in one settlement: its first verdict landed.
		return fmt.Errorf("%w: %s", errWrongState, k.state)
	}
	k.records = append(k.records, RoundRecord{
		Round:     k.round,
		Challenge: k.challenge,
		ProofSize: len(k.pendingProof),
		GasUsed:   k.pendingGas + settleGas,
		SettleGas: settleGas,
		Passed:    passed,
	})
	k.round++
	k.challenge = nil
	k.pendingProof = nil
	k.pendingGas = 0
	k.prepared = nil

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
		return fmt.Errorf("%w: %s", errWrongState, k.state)
	}
	if k.Chain.Height() < k.trigger {
		return fmt.Errorf("%w: height %d < deadline %d", errNotTrigger, k.Chain.Height(), k.trigger)
	}
	k.records = append(k.records, RoundRecord{
		Round:     k.round,
		Challenge: k.challenge,
		Passed:    false,
	})
	k.round++
	k.challenge = nil
	k.Chain.Emit("fail", []byte("deadline"))
	if err := k.settleFailure(); err != nil {
		return err
	}
	return k.Chain.LogOp(k.op(opMissDeadline), nil)
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
