// Package paper holds the closed-form models behind the paper's evaluation
// that only cmd/experiments prints: the Fig. 5 gas series, the
// contract-duration fee model of Fig. 6, the blockchain-growth and
// aggregate-proving models of Fig. 10, the throughput estimate of Section
// VII-D, the qualitative framework comparison of Table I, and the detection
// probability of sampling k chunks behind Fig. 9 and the k = 300 point. The
// per-audit gas and price they start from are internal/cost's.
package paper

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cost"
)

// Fig5Point is one point of the Fig. 5 series.
type Fig5Point struct {
	VerifyMs  float64
	ProofSize int
	Gas       uint64
}

// Fig5Series generates the Fig. 5 curves: gas versus extrapolated
// verification time (5..9 ms) for the 96-byte plain proof and the 288-byte
// private proof.
func Fig5Series(m cost.VerificationGasModel) (plain, private []Fig5Point) {
	for ms := 5.0; ms <= 9.0; ms++ {
		d := time.Duration(ms * float64(time.Millisecond))
		plain = append(plain, Fig5Point{VerifyMs: ms, ProofSize: 96, Gas: m.AuditGas(96, d)})
		private = append(private, Fig5Point{VerifyMs: ms, ProofSize: 288, Gas: m.AuditGas(288, d)})
	}
	return plain, private
}

// ChallengeGasOverhead is the modeled cost of posting the 48-byte challenge
// plus drawing beacon randomness; the paper prices randomness at
// 0.01-0.05 USD per round.
func ChallengeGasOverhead() uint64 {
	return 21000 + 48*16 + 20000 // tx + calldata + one storage word update
}

// FeeModel computes Fig. 6: total auditing fees over a contract duration.
type FeeModel struct {
	Price            cost.Price
	GasPerAudit      uint64
	RedundancyFactor int // number of providers audited (1 = single mapping)
}

// PaperFeeModel uses the 288-byte private-proof audit cost.
func PaperFeeModel() FeeModel {
	m := cost.PaperGasModel()
	return FeeModel{
		Price:            cost.PaperPrice(),
		GasPerAudit:      m.AuditGas(288, 7200*time.Microsecond) + ChallengeGasOverhead(),
		RedundancyFactor: 1,
	}
}

// totalUSD returns the fee for auditing every `intervalDays` over
// `durationDays`.
func (f FeeModel) totalUSD(durationDays int, intervalDays float64) float64 {
	if intervalDays <= 0 {
		return 0
	}
	audits := float64(durationDays) / intervalDays
	redundancy := f.RedundancyFactor
	if redundancy < 1 {
		redundancy = 1
	}
	return audits * float64(redundancy) * f.Price.GasToUSD(f.GasPerAudit)
}

// Fig6Row is one x-position of Fig. 6.
type Fig6Row struct {
	DurationDays int
	DailyUSD     float64
	WeeklyUSD    float64
}

// Fig6Series generates the Fig. 6 bars: fees for daily and weekly auditing
// across the paper's durations.
func Fig6Series(f FeeModel) []Fig6Row {
	durations := []int{30, 90, 180, 360, 720, 1800}
	rows := make([]Fig6Row, 0, len(durations))
	for _, d := range durations {
		rows = append(rows, Fig6Row{
			DurationDays: d,
			DailyUSD:     f.totalUSD(d, 1),
			WeeklyUSD:    f.totalUSD(d, 7),
		})
	}
	return rows
}

// ScalabilityModel drives Fig. 10 and the Section VII-D throughput claim.
type ScalabilityModel struct {
	BytesPerAudit    int     // on-chain bytes per round (challenge + proof + envelopes)
	AuditsPerDay     float64 // per user
	AvgBlockBytes    int     // observed Ethereum average (paper: ~18 KB)
	BlockIntervalSec float64
	TxPerAudit       float64 // challenge tx + proof tx
	AvgTxBytes       float64 // average transaction footprint for throughput estimates
}

// PaperScalabilityModel matches Section VII-D's assumptions.
func PaperScalabilityModel() ScalabilityModel {
	return ScalabilityModel{
		BytesPerAudit:    48 + 288, // challenge + private proof payloads
		AuditsPerDay:     1,
		AvgBlockBytes:    18 * 1024,
		BlockIntervalSec: 13,
		TxPerAudit:       2,
		// The paper's "2 transactions per second" over 18 KB blocks
		// implies an average on-chain transaction footprint near 700
		// bytes (proof + contract-call overhead); using it keeps the
		// throughput estimate conservative.
		AvgTxBytes: 700,
	}
}

// AnnualChainGrowthGB returns Fig. 10 (left): blockchain growth per year
// for the given user base.
func (m ScalabilityModel) AnnualChainGrowthGB(users int) float64 {
	bytesPerYear := float64(users) * m.AuditsPerDay * float64(m.BytesPerAudit) * 365
	return bytesPerYear / (1 << 30)
}

// SupportedUsers returns how many simultaneously active users the chain
// throughput sustains: block capacity in transactions per second divided by
// per-user transaction demand.
func (m ScalabilityModel) SupportedUsers(redundancy int) int {
	txPerDay := m.TxPerSecond() * 86400
	perUser := m.AuditsPerDay * m.TxPerAudit * float64(redundancy)
	return int(txPerDay / perUser)
}

// TxPerSecond returns the modeled chain throughput.
func (m ScalabilityModel) TxPerSecond() float64 {
	return float64(m.AvgBlockBytes) / m.AvgTxBytes / m.BlockIntervalSec
}

// AggregateProveTime returns Fig. 10 (right): total proving time for a
// provider storing data of `owners` distinct owners, given the measured
// per-contract proving time (the paper assumes a linear regression, which
// holds because proofs are independent).
func AggregateProveTime(perContract time.Duration, owners int) time.Duration {
	return time.Duration(owners) * perContract
}

// --- Table I ---

// Support grades a feature in the Table I comparison.
type Support int

// Grades used by Table I.
const (
	no Support = iota
	partial
	yes
	na
	notSpecified
)

// String renders the grade using the paper's legend.
func (s Support) String() string {
	switch s {
	case no:
		return "x"
	case partial:
		return "o"
	case yes:
		return "#"
	case na:
		return "N/A"
	case notSpecified:
		return "N/P"
	default:
		return "?"
	}
}

// Framework is one column of Table I.
type Framework struct {
	Name        string
	Class       string // P2P, EC, BC, ALT
	Incentive   Support
	AuditMode   string // N/A, TTP, BC, PA
	StorageGuar string // N/A, Low, High, N/P
	OnChainSec  Support
	ProverEff   Support
	AuditorEff  Support
}

// TableI returns the paper's comparison matrix, including this work's row.
func TableI() []Framework {
	return []Framework{
		{"IPFS", "P2P", no, "N/A", "N/A", no, na, na},
		{"Swarm", "EC", partial, "TTP", "Low", no, partial, partial},
		{"Storj", "ALT", yes, "TTP", "Low", no, partial, partial},
		{"MaidSafe", "ALT", yes, "TTP", "Low", no, partial, partial},
		{"Sia", "ALT", yes, "BC", "Low", no, partial, partial},
		{"Filecoin", "ALT", yes, "PA", "High", yes, no, partial},
		{"ZKCSP", "BC", partial, "PA", "High", yes, no, partial},
		{"Hawk", "EC", partial, "BC", "N/P", yes, no, no},
		{"This work", "EC", yes, "BC", "High", yes, yes, yes},
	}
}

// FormatTableI renders the matrix as an aligned text table.
func FormatTableI(rows []Framework) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-5s %-9s %-6s %-8s %-8s %-7s %-8s\n",
		"Framework", "Class", "Incentive", "Audit", "Storage", "OnChain", "Prover", "Auditor")
	for _, f := range rows {
		fmt.Fprintf(&b, "%-10s %-5s %-9s %-6s %-8s %-8s %-7s %-8s\n",
			f.Name, f.Class, f.Incentive, f.AuditMode, f.StorageGuar,
			f.OnChainSec, f.ProverEff, f.AuditorEff)
	}
	return b.String()
}
