package contract

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"math/big"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
)

func TestNoCallsAfterExpiry(t *testing.T) {
	f := newFixture(t, 1, nil)
	f.initToAudit(t)
	if !f.runRound(t) {
		t.Fatal("round failed")
	}
	if f.contract.State() != StateExpired {
		t.Fatalf("state %v", f.contract.State())
	}
	// Every state-machine entry point must refuse now.
	if err := f.contract.Negotiate(); !errors.Is(err, errWrongState) {
		t.Fatalf("Negotiate after expiry: %v", err)
	}
	if _, err := f.contract.IssueChallenge(); !errors.Is(err, errWrongState) {
		t.Fatalf("IssueChallenge after expiry: %v", err)
	}
	if err := f.contract.SubmitProof("provider", nil); !errors.Is(err, errWrongState) {
		t.Fatalf("SubmitProof after expiry: %v", err)
	}
	if _, err := f.settle(); !errors.Is(err, errWrongState) {
		t.Fatalf("settle after expiry: %v", err)
	}
	if err := f.contract.MissDeadline(); !errors.Is(err, errWrongState) {
		t.Fatalf("MissDeadline after expiry: %v", err)
	}
}

func TestDoubleChallengeRejected(t *testing.T) {
	f := newFixture(t, 2, nil)
	f.initToAudit(t)
	f.advance()
	if _, err := f.contract.IssueChallenge(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.contract.IssueChallenge(); !errors.Is(err, errWrongState) {
		t.Fatalf("double challenge: %v", err)
	}
}

func TestDoubleProofRejected(t *testing.T) {
	f := newFixture(t, 2, nil)
	f.initToAudit(t)
	f.advance()
	ch, err := f.contract.IssueChallenge()
	if err != nil {
		t.Fatal(err)
	}
	proof, err := f.prover.ProvePrivate(ch, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := proof.Marshal()
	if err := f.contract.SubmitProof("provider", enc); err != nil {
		t.Fatal(err)
	}
	// The proof is pending; a second submission for the same round must
	// fail (the state is SETTLE awaiting block inclusion).
	if err := f.contract.SubmitProof("provider", enc); !errors.Is(err, errWrongState) {
		t.Fatalf("double proof: %v", err)
	}
	if _, err := f.settle(); err != nil {
		t.Fatal(err)
	}
	// The round settled; a second settlement must fail too (the state is
	// back to AUDIT awaiting the next trigger).
	if _, err := f.settle(); !errors.Is(err, errWrongState) {
		t.Fatalf("double settle: %v", err)
	}
	if err := f.contract.SubmitProof("provider", enc); !errors.Is(err, errWrongState) {
		t.Fatalf("proof after settle: %v", err)
	}
}

func TestStaleProofReplayFails(t *testing.T) {
	// A proof computed for round 1's challenge must not pass round 2.
	f := newFixture(t, 3, nil)
	f.initToAudit(t)
	f.advance()
	ch1, err := f.contract.IssueChallenge()
	if err != nil {
		t.Fatal(err)
	}
	stale, err := f.prover.ProvePrivate(ch1, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	staleEnc, _ := stale.Marshal()
	if err := f.contract.SubmitProof("provider", staleEnc); err != nil {
		t.Fatal(err)
	}
	ok, err := f.settle()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("fresh proof rejected")
	}

	// Round 2 with the stale round-1 proof: the beacon challenge differs,
	// so verification must fail and the provider gets slashed.
	f.advance()
	if _, err := f.contract.IssueChallenge(); err != nil {
		t.Fatal(err)
	}
	if err := f.contract.SubmitProof("provider", staleEnc); err != nil {
		t.Fatal(err)
	}
	ok, err = f.settle()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("stale proof replay accepted")
	}
	if f.contract.State() != StateAborted {
		t.Fatalf("state %v", f.contract.State())
	}
}

func TestRecordsAreCopies(t *testing.T) {
	f := newFixture(t, 1, nil)
	f.initToAudit(t)
	f.runRound(t)
	recs := f.contract.Records()
	recs[0].Passed = false
	if f.contract.Records()[0].Passed != true {
		t.Fatal("Records exposed internal state")
	}
}

// TestRoundGasMatchesPaperAnchor pins the full on-chain audit cost to the
// paper's measured point: a 288-byte proof with the extrapolated
// verification gas lands at ~589k gas, ~$0.42. The two-phase protocol adds
// exactly one settlement-transaction intrinsic (TxBase) of protocol
// overhead on top of the paper's single-transaction anchor, so the anchor
// is checked net of that intrinsic.
func TestRoundGasMatchesPaperAnchor(t *testing.T) {
	f := newFixture(t, 1, nil)
	f.initToAudit(t)
	f.runRound(t)
	rec := f.contract.Records()[0]
	anchor := rec.GasUsed - f.chain.Config().Gas.TxBase
	if anchor < 580_000 || anchor > 598_000 {
		t.Fatalf("round gas %d (net of settle intrinsic) outside the paper's ~589k anchor", anchor)
	}
	usd := cost.PaperPrice().GasToUSD(anchor)
	if usd < 0.40 || usd > 0.45 {
		t.Fatalf("round cost $%.4f outside ~$0.42", usd)
	}
	// The record splits the phases: settlement carries the verification
	// gas, submission only the calldata.
	if rec.SettleGas <= rec.GasUsed-rec.SettleGas {
		t.Fatalf("settlement gas %d should dominate submission gas %d",
			rec.SettleGas, rec.GasUsed-rec.SettleGas)
	}
}

func TestChallengeOnChainMatchesExpansion(t *testing.T) {
	// The challenge the contract emits must round-trip through its
	// on-chain encoding to identical expansion on the prover side.
	f := newFixture(t, 1, nil)
	f.initToAudit(t)
	f.advance()
	ch, err := f.contract.IssueChallenge()
	if err != nil {
		t.Fatal(err)
	}
	var encoded []byte
	for _, ev := range f.chain.Events() {
		if ev.Name == "challenged" {
			encoded = ev.Data
		}
	}
	if encoded == nil {
		t.Fatal("challenge event missing")
	}
	// The self-contained encoding is the on-chain bytes followed by K.
	dec, err := core.UnmarshalChallengeBinary(binary.BigEndian.AppendUint32(append([]byte(nil), encoded...), uint32(ch.K)))
	if err != nil {
		t.Fatal(err)
	}
	i1, c1, r1, _ := ch.Expand(f.ef.NumChunks())
	i2, c2, r2, _ := dec.Expand(f.ef.NumChunks())
	if !slices.Equal(c1, c2) || r1 != r2 {
		t.Fatal("expansion mismatch from chain bytes")
	}
	for i := range i1 {
		if i1[i] != i2[i] {
			t.Fatal("index mismatch from chain bytes")
		}
	}
}

func TestZeroPaymentContract(t *testing.T) {
	// A contract with zero per-round payment still runs (pure audit, no
	// micro-payments) and refunds deposits at expiry.
	f := newFixture(t, 2, nil)
	f.contract.Terms.PaymentPerRound = big.NewInt(0)
	f.contract.Terms.OwnerDeposit = big.NewInt(0)
	f.initToAudit(t)
	for i := 0; i < 2; i++ {
		if !f.runRound(t) {
			t.Fatal("round failed")
		}
	}
	if f.contract.State() != StateExpired {
		t.Fatalf("state %v", f.contract.State())
	}
	if f.chain.Balance("provider").Cmp(big.NewInt(1_000_000)) != 0 {
		t.Fatal("zero-payment contract moved funds")
	}
}
