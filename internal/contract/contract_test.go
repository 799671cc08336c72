package contract

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
)

// fixedBeacon returns deterministic randomness for tests.
type fixedBeacon struct{}

func (fixedBeacon) Randomness(round int) ([]byte, error) {
	out := make([]byte, 48)
	for i := range out {
		out[i] = byte(round*31 + i)
	}
	return out, nil
}

// failingBeacon always errors.
type failingBeacon struct{}

func (failingBeacon) Randomness(int) ([]byte, error) {
	return nil, errors.New("beacon offline")
}

type fixture struct {
	chain    *chain.Chain
	contract *Contract
	prover   *core.Prover
	ef       *core.EncodedFile
}

func newFixture(t testing.TB, rounds int, beacon RandomnessSource) *fixture {
	t.Helper()
	sk, err := core.KeyGen(4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2000)
	rand.Read(data)
	ef, err := core.EncodeFile(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := core.Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := core.NewProver(sk.Pub, ef, auths)
	if err != nil {
		t.Fatal(err)
	}

	c := chain.New(chain.DefaultConfig())
	c.Fund("owner", big.NewInt(1_000_000))
	c.Fund("provider", big.NewInt(1_000_000))

	terms := Agreement{
		Owner:            "owner",
		Provider:         "provider",
		Rounds:           rounds,
		ChallengeSize:    3,
		RoundInterval:    2,
		ProofDeadline:    2,
		PaymentPerRound:  big.NewInt(100),
		OwnerDeposit:     big.NewInt(int64(100 * rounds)),
		ProviderDeposit:  big.NewInt(5000),
		NumChunks:        ef.NumChunks(),
		PublicKey:        sk.Pub,
		PublicKeyPrivacy: true,
	}
	if beacon == nil {
		beacon = fixedBeacon{}
	}
	// Net execution gas: the paper's 589k total anchor minus intrinsic
	// transaction gas and the 288-byte proof calldata.
	verifyGas := uint64(589_000 - 21_000 - 288*16)
	k, err := Deploy(c, "audit-contract", terms, beacon, verifyGas)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{chain: c, contract: k, prover: prover, ef: ef}
}

// advance mines blocks until the contract trigger height is reached.
func (f *fixture) advance() {
	for f.chain.Height() < f.contract.TriggerHeight() {
		f.chain.MineBlock()
	}
}

// initToAudit walks INIT -> AUDIT.
func (f *fixture) initToAudit(t testing.TB) {
	t.Helper()
	if err := f.contract.Negotiate(); err != nil {
		t.Fatal(err)
	}
	if err := f.contract.Acknowledge("provider", true); err != nil {
		t.Fatal(err)
	}
	if err := f.contract.Freeze(); err != nil {
		t.Fatal(err)
	}
}

// runRound executes one full challenge/prove/submit/settle round.
func (f *fixture) runRound(t testing.TB) bool {
	t.Helper()
	f.advance()
	ch, err := f.contract.IssueChallenge()
	if err != nil {
		t.Fatal(err)
	}
	proof, err := f.prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := proof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.contract.SubmitProof("provider", enc); err != nil {
		t.Fatal(err)
	}
	if f.contract.State() != StateSettle {
		t.Fatalf("state after submit = %v, want SETTLE", f.contract.State())
	}
	f.chain.MineBlock() // block inclusion: the settlement point
	ok, err := f.settle()
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// settle is phase 2 for the fixture's contract alone: a one-contract block
// through SettleBatchAt at the current height, which charges exactly one
// verification's gas.
func (f *fixture) settle() (bool, error) {
	res := SettleBatchAt([]*Contract{f.contract}, f.chain.Height(), 0, nil)[0]
	return res.Passed, res.Err
}

func TestFullContractLifecycle(t *testing.T) {
	f := newFixture(t, 3, nil)
	f.initToAudit(t)
	if f.contract.State() != StateAudit {
		t.Fatalf("state = %v, want AUDIT", f.contract.State())
	}
	if f.contract.StoredKeyBytes() == 0 {
		t.Fatal("public key not charged to chain")
	}

	for i := 0; i < 3; i++ {
		if !f.runRound(t) {
			t.Fatalf("round %d failed", i)
		}
	}
	if f.contract.State() != StateExpired {
		t.Fatalf("state = %v, want EXPIRED", f.contract.State())
	}
	// Provider earned 3 x 100 and got its deposit back.
	if got := f.chain.Balance("provider"); got.Cmp(big.NewInt(1_000_300)) != 0 {
		t.Fatalf("provider balance = %v, want 1000300", got)
	}
	// Owner paid 300 total; rest of escrow refunded.
	if got := f.chain.Balance("owner"); got.Cmp(big.NewInt(999_700)) != 0 {
		t.Fatalf("owner balance = %v, want 999700", got)
	}
	if f.chain.LockedBalance("owner").Sign() != 0 || f.chain.LockedBalance("provider").Sign() != 0 {
		t.Fatal("escrow not fully released")
	}
	recs := f.contract.Records()
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	for _, r := range recs {
		if !r.Passed || r.ProofSize != core.PrivateProofSize {
			t.Fatalf("bad record %+v", r)
		}
	}
}

func TestCorruptionSlashesProvider(t *testing.T) {
	f := newFixture(t, 3, nil)
	f.initToAudit(t)

	// Provider silently corrupts everything after depositing.
	for i := 0; i < f.ef.NumChunks(); i++ {
		f.ef.Corrupt(i, 0)
	}
	if ok := f.runRound(t); ok {
		t.Fatal("audit passed over corrupted data")
	}
	if f.contract.State() != StateAborted {
		t.Fatalf("state = %v, want ABORTED", f.contract.State())
	}
	// Provider lost its 5000 deposit to the owner; no payments made.
	if got := f.chain.Balance("provider"); got.Cmp(big.NewInt(995_000)) != 0 {
		t.Fatalf("provider balance = %v, want 995000", got)
	}
	if got := f.chain.Balance("owner"); got.Cmp(big.NewInt(1_005_000)) != 0 {
		t.Fatalf("owner balance = %v, want 1005000", got)
	}
}

func TestGarbageProofSlashes(t *testing.T) {
	f := newFixture(t, 2, nil)
	f.initToAudit(t)
	f.advance()
	if _, err := f.contract.IssueChallenge(); err != nil {
		t.Fatal(err)
	}
	// Phase 1 accepts the bytes sight unseen (calldata only) ...
	if err := f.contract.SubmitProof("provider", make([]byte, core.PrivateProofSize)); err != nil {
		t.Fatal(err)
	}
	// ... and settlement rejects them without pairing work.
	ok, err := f.settle()
	if err != nil {
		t.Fatal(err)
	}
	if ok || f.contract.State() != StateAborted {
		t.Fatal("garbage proof not slashed")
	}
	if rec := f.contract.Records()[0]; rec.SettleGas != f.chain.Config().Gas.TxBase {
		t.Fatalf("parse rejection charged verification gas: %d", rec.SettleGas)
	}
}

func TestMissedDeadline(t *testing.T) {
	f := newFixture(t, 2, nil)
	f.initToAudit(t)
	f.advance()
	if _, err := f.contract.IssueChallenge(); err != nil {
		t.Fatal(err)
	}
	// Deadline not yet reached: MissDeadline must refuse.
	if err := f.contract.MissDeadline(); !errors.Is(err, errNotTrigger) {
		t.Fatalf("early MissDeadline err = %v", err)
	}
	f.advance()
	if err := f.contract.MissDeadline(); err != nil {
		t.Fatal(err)
	}
	if f.contract.State() != StateAborted {
		t.Fatal("missed deadline did not abort")
	}
	if got := f.chain.Balance("owner"); got.Cmp(big.NewInt(1_005_000)) != 0 {
		t.Fatalf("owner not compensated: %v", got)
	}
}

func TestProviderRejectsContract(t *testing.T) {
	f := newFixture(t, 2, nil)
	if err := f.contract.Negotiate(); err != nil {
		t.Fatal(err)
	}
	if err := f.contract.Acknowledge("provider", false); err != nil {
		t.Fatal(err)
	}
	if f.contract.State() != StateAborted {
		t.Fatal("rejection did not abort")
	}
	// No deposits were taken.
	if f.chain.LockedBalance("owner").Sign() != 0 || f.chain.LockedBalance("provider").Sign() != 0 {
		t.Fatal("deposits locked despite rejection")
	}
}

func TestStateMachineGuards(t *testing.T) {
	f := newFixture(t, 2, nil)

	// Calls out of order must fail with ErrWrongState.
	if err := f.contract.Freeze(); !errors.Is(err, errWrongState) {
		t.Fatalf("Freeze in INIT: %v", err)
	}
	if _, err := f.contract.IssueChallenge(); !errors.Is(err, errWrongState) {
		t.Fatalf("IssueChallenge in INIT: %v", err)
	}
	if err := f.contract.SubmitProof("provider", nil); !errors.Is(err, errWrongState) {
		t.Fatalf("SubmitProof in INIT: %v", err)
	}
	if _, err := f.settle(); !errors.Is(err, errWrongState) {
		t.Fatalf("settle in INIT: %v", err)
	}
	if err := f.contract.Acknowledge("provider", true); !errors.Is(err, errWrongState) {
		t.Fatalf("Acknowledge in INIT: %v", err)
	}

	f.initToAudit(t)

	// Challenge before the trigger height must fail.
	if _, err := f.contract.IssueChallenge(); !errors.Is(err, errNotTrigger) {
		t.Fatalf("early challenge: %v", err)
	}

	// Wrong party.
	f.advance()
	if _, err := f.contract.IssueChallenge(); err != nil {
		t.Fatal(err)
	}
	if err := f.contract.SubmitProof("mallory", nil); !errors.Is(err, errWrongParty) {
		t.Fatalf("wrong party: %v", err)
	}
}

func TestAcknowledgeWrongParty(t *testing.T) {
	f := newFixture(t, 2, nil)
	if err := f.contract.Negotiate(); err != nil {
		t.Fatal(err)
	}
	if err := f.contract.Acknowledge("mallory", true); !errors.Is(err, errWrongParty) {
		t.Fatalf("err = %v", err)
	}
}

func TestBeaconFailureSurfaces(t *testing.T) {
	f := newFixture(t, 2, failingBeacon{})
	f.initToAudit(t)
	f.advance()
	if _, err := f.contract.IssueChallenge(); err == nil {
		t.Fatal("beacon failure swallowed")
	}
}

func TestDeployValidation(t *testing.T) {
	c := chain.New(chain.DefaultConfig())
	if _, err := Deploy(c, "x", Agreement{}, fixedBeacon{}, 0); err == nil {
		t.Fatal("accepted empty agreement")
	}
}

func TestInsufficientDepositBlocksFreeze(t *testing.T) {
	f := newFixture(t, 2, nil)
	if err := f.contract.Negotiate(); err != nil {
		t.Fatal(err)
	}
	if err := f.contract.Acknowledge("provider", true); err != nil {
		t.Fatal(err)
	}
	// Tie up the provider's funds below its deposit.
	if err := f.chain.Lock("provider", big.NewInt(999_000)); err != nil {
		t.Fatal(err)
	}
	if err := f.contract.Freeze(); err == nil {
		t.Fatal("freeze succeeded without funds")
	}
	// The owner's lock must have been rolled back.
	if f.chain.LockedBalance("owner").Sign() != 0 {
		t.Fatal("owner funds stranded in escrow")
	}
}
