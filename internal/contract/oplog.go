package contract

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/chain"
	"repro/internal/core"
)

// A contract whose chain keeps a log (chain.Chain.AttachLog) writes each of
// its successful calls there as an op: an op code, the contract's address
// and the inputs the call needs to run again. Replay runs a log's ops again
// on a fresh chain. With no log attached, no op is encoded.
const (
	opDeploy       byte = 1 // the agreement; the key as registry digest ‖ Name
	opNegotiate    byte = 2
	opAcknowledge  byte = 3 // accept
	opFreeze       byte = 4
	opChallenge    byte = 5 // an expiry; in logs written before challenges were batched, also a one-contract challenge
	opProof        byte = 6 // the proof bytes
	opVerdict      byte = 7 // passed, settle gas, height: a one-contract settlement, in logs written before settlements were batched
	opMissDeadline byte = 8
	opSettle       byte = 9  // a settlement transaction: its height, then per verdict the contract, passed and gas
	opChallenges   byte = 10 // a challenge transaction: its contracts
)

var errBadOp = errors.New("contract: malformed op")

// An op is built by appending fields: unsigned integers as uvarints, byte
// strings and big integers (non-negative) length-prefixed, flags as a byte.
type opBuf []byte

func newOp(code byte, addr chain.Address) opBuf { return opBuf{code}.str(string(addr)) }

func (b opBuf) uint(v uint64) opBuf { return binary.AppendUvarint(b, v) }
func (b opBuf) str(s string) opBuf  { return append(b.uint(uint64(len(s))), s...) }
func (b opBuf) raw(p []byte) opBuf  { return append(b.uint(uint64(len(p))), p...) }

func (b opBuf) flag(v bool) opBuf {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func (b opBuf) big(x *big.Int) opBuf { return b.raw(x.Bytes()) }

// opReader decodes an op's fields in the order they were appended. Its
// first failure sticks, and no length it reads can make it allocate past
// the op's own bytes.
type opReader struct {
	p   []byte
	err error
}

func (r *opReader) uint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.err = errBadOp
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *opReader) int() int {
	v := r.uint()
	if v > 1<<31 {
		r.err = errBadOp
	}
	return int(v)
}

func (r *opReader) raw() []byte {
	n := r.uint()
	if r.err != nil || n > uint64(len(r.p)) {
		r.err = errBadOp
		return nil
	}
	p := r.p[:n:n]
	r.p = r.p[n:]
	return p
}

func (r *opReader) flag() bool {
	if len(r.p) == 0 || r.p[0] > 1 {
		r.err = errBadOp
		return false
	}
	v := r.p[0] == 1
	r.p = r.p[1:]
	return v
}

func (r *opReader) big() *big.Int { return new(big.Int).SetBytes(r.raw()) }

func (r *opReader) digest() (d [32]byte) {
	if p := r.raw(); len(p) == len(d) {
		copy(d[:], p)
	} else {
		r.err = errBadOp
	}
	return d
}

// done reports the reader's error, or errBadOp if bytes are left over.
func (r *opReader) done() error {
	if r.err == nil && len(r.p) != 0 {
		r.err = errBadOp
	}
	return r.err
}

// op returns the op of a call on k that takes no input, or nil when k's
// chain keeps no log.
func (k *Contract) op(code byte) []byte {
	if !k.Chain.Logging() {
		return nil
	}
	return newOp(code, k.Addr)
}

func (k *Contract) ackOp(accept bool) []byte {
	if !k.Chain.Logging() {
		return nil
	}
	return newOp(opAcknowledge, k.Addr).flag(accept)
}

func (k *Contract) proofOp(proof []byte) []byte {
	if !k.Chain.Logging() {
		return nil
	}
	return newOp(opProof, k.Addr).raw(proof)
}

// settleOp returns the op of the settlement transaction on c for the
// verdicts at idx, or nil when c keeps no log. Its address is the batch
// verifier's.
func settleOp(c *chain.Chain, vs []Verdict, idx []int, height uint64) []byte {
	if !c.Logging() {
		return nil
	}
	op := newOp(opSettle, batchVerifier).uint(height).uint(uint64(len(idx)))
	for _, i := range idx {
		op = op.str(string(vs[i].Contract.Addr)).flag(vs[i].Passed).uint(vs[i].Gas)
	}
	return op
}

// challengeOp returns the op of the challenge transaction on c for the
// contracts at idx, or nil when c keeps no log. Its address is the audit
// trigger's. The challenges are not in it: replay draws them from the beacon
// again.
func challengeOp(c *chain.Chain, cs []*Contract, idx []int) []byte {
	if !c.Logging() {
		return nil
	}
	op := newOp(opChallenges, auditTrigger).uint(uint64(len(idx)))
	for _, i := range idx {
		op = op.str(string(cs[i].Addr))
	}
	return op
}

// logDeploy writes k's deploy op. The key goes as its body's digest and
// its Name; the log holds the body itself once, ahead of the first op that
// references it.
func (k *Contract) logDeploy() error {
	t := k.Terms
	body, name, err := t.PublicKey.KeyBody(t.PublicKeyPrivacy)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(body)
	op := newOp(opDeploy, k.Addr).uint(k.verifyGas).
		str(string(t.Owner)).str(string(t.Provider)).
		uint(uint64(t.Rounds)).uint(uint64(t.ChallengeSize)).
		uint(t.RoundInterval).uint(t.ProofDeadline).
		big(t.PaymentPerRound).big(t.OwnerDeposit).big(t.ProviderDeposit).
		uint(uint64(t.NumChunks)).flag(t.PublicKeyPrivacy).
		raw(digest[:]).raw(name[:])
	return k.Chain.LogOp(op, body)
}

// Replay runs a chain log's records (chain.OpenLog) again on c, a chain in
// the state the logged one started from — its genesis balances — that
// keeps no log. Content records fill a key registry; each op runs the call
// it records, a settlement through SettleVerdictsAt with its logged verdicts
// and gas, so no proof is parsed or verified (an older log's verdict op is a
// one-contract settlement, the transaction it was written with), and a
// challenge transaction through IssueChallenges over its contracts (an older
// log's challenge op is a one-contract challenge transaction, with the gas
// and bytes of the one it was written with); each seal mark re-seals its
// block (chain.Chain.Reseal). Challenges are drawn from rand again, so it
// must be the logged chain's beacon. Replay returns the contracts the log
// deployed, in deploy order. A record that does not decode, an op whose call
// fails and a block that re-seals differently are all chain.ErrLogCorrupt.
func Replay(c *chain.Chain, recs []chain.LogRecord, rand RandomnessSource) ([]*Contract, error) {
	bodies := make(map[[32]byte][]byte)
	byAddr := make(map[chain.Address]*Contract)
	var deployed []*Contract
	for i, rec := range recs {
		var err error
		switch rec.Kind {
		case chain.LogContent:
			bodies[sha256.Sum256(rec.Data)] = rec.Data
		case chain.LogSeal:
			err = c.Reseal(rec)
		case chain.LogOp:
			var k *Contract
			if k, err = replayOp(c, rec.Data, bodies, byAddr, rand); k != nil {
				byAddr[k.Addr] = k
				deployed = append(deployed, k)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", chain.ErrLogCorrupt, i, err)
		}
	}
	return deployed, nil
}

// replayOp runs one op again. It returns the contract a deploy op made.
func replayOp(c *chain.Chain, op []byte, bodies map[[32]byte][]byte, byAddr map[chain.Address]*Contract, rand RandomnessSource) (*Contract, error) {
	if len(op) == 0 {
		return nil, errBadOp
	}
	r := &opReader{p: op[1:]}
	addr := chain.Address(r.raw())
	switch op[0] {
	case opDeploy:
		return replayDeploy(c, addr, r, bodies, rand)
	case opSettle:
		if addr != batchVerifier {
			return nil, errBadOp
		}
		return nil, replaySettle(r, byAddr)
	case opChallenges:
		if addr != auditTrigger {
			return nil, errBadOp
		}
		return nil, replayChallenges(r, byAddr)
	}
	k := byAddr[addr]
	if k == nil {
		return nil, fmt.Errorf("op %d on undeployed contract %q", op[0], addr)
	}
	var accept, passed bool
	var proof []byte
	var gas, height uint64
	switch op[0] {
	case opAcknowledge:
		accept = r.flag()
	case opProof:
		proof = r.raw()
	case opVerdict:
		passed, gas, height = r.flag(), r.uint(), r.uint()
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	var err error
	switch op[0] {
	case opNegotiate:
		err = k.Negotiate()
	case opAcknowledge:
		err = k.Acknowledge(k.Terms.Provider, accept)
	case opFreeze:
		err = k.Freeze()
	case opChallenge:
		err = IssueChallenges([]*Contract{k})[0].Err
	case opProof:
		err = k.SubmitProof(k.Terms.Provider, proof)
	case opVerdict:
		err = SettleVerdictsAt([]Verdict{{Contract: k, Passed: passed, Gas: gas}}, height)[0].Err
	case opMissDeadline:
		err = k.MissDeadline()
	default:
		err = fmt.Errorf("%w: unknown op %d", errBadOp, op[0])
	}
	return nil, err
}

// replaySettle decodes a settlement op's verdicts and settles them again.
func replaySettle(r *opReader, byAddr map[chain.Address]*Contract) error {
	height, n := r.uint(), r.uint()
	// An entry takes at least three bytes, so a count the op cannot hold is
	// refused before anything is allocated for it.
	if r.err != nil || n == 0 || n > uint64(len(r.p))/3 {
		return errBadOp
	}
	vs := make([]Verdict, n)
	for i := range vs {
		addr := chain.Address(r.raw())
		vs[i] = Verdict{Contract: byAddr[addr], Passed: r.flag(), Gas: r.uint()}
		if r.err == nil && vs[i].Contract == nil {
			return fmt.Errorf("settlement of undeployed contract %q", addr)
		}
	}
	if err := r.done(); err != nil {
		return err
	}
	for _, res := range SettleVerdictsAt(vs, height) {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// replayChallenges decodes a challenge op's contracts and challenges them
// again. Each must draw a challenge, as it did when the op was written.
func replayChallenges(r *opReader, byAddr map[chain.Address]*Contract) error {
	n := r.uint()
	// An entry takes at least one byte, so a count the op cannot hold is
	// refused before anything is allocated for it.
	if r.err != nil || n == 0 || n > uint64(len(r.p)) {
		return errBadOp
	}
	cs := make([]*Contract, n)
	for i := range cs {
		addr := chain.Address(r.raw())
		cs[i] = byAddr[addr]
		if r.err == nil && cs[i] == nil {
			return fmt.Errorf("challenge of undeployed contract %q", addr)
		}
	}
	if err := r.done(); err != nil {
		return err
	}
	for i, res := range IssueChallenges(cs) {
		if res.Err != nil {
			return res.Err
		}
		if res.Challenge == nil {
			return fmt.Errorf("logged challenge of %q expired its contract", cs[i].Addr)
		}
	}
	return nil
}

// replayDeploy decodes a deploy op's agreement and deploys it again.
func replayDeploy(c *chain.Chain, addr chain.Address, r *opReader, bodies map[[32]byte][]byte, rand RandomnessSource) (*Contract, error) {
	verifyGas := r.uint()
	t := Agreement{
		Owner:    chain.Address(r.raw()),
		Provider: chain.Address(r.raw()),
	}
	t.Rounds, t.ChallengeSize = r.int(), r.int()
	t.RoundInterval, t.ProofDeadline = r.uint(), r.uint()
	t.PaymentPerRound, t.OwnerDeposit, t.ProviderDeposit = r.big(), r.big(), r.big()
	t.NumChunks = r.int()
	t.PublicKeyPrivacy = r.flag()
	digest, name := r.digest(), r.digest()
	if err := r.done(); err != nil {
		return nil, err
	}
	body, ok := bodies[digest]
	if !ok {
		return nil, fmt.Errorf("deploy of %q references a key body the log does not hold", addr)
	}
	pk, err := core.UnmarshalKeyBody(body, name, t.PublicKeyPrivacy)
	if err != nil {
		return nil, err
	}
	t.PublicKey = pk
	return Deploy(c, addr, t, rand, verifyGas)
}
