// Package cost prices an audit on chain: the gas extrapolation of Fig. 5
// and the USD conversion at the paper's Apr-2020 price snapshot (143
// USD/ETH, 5 Gwei). The fee, growth and throughput models built on it, which
// only the experiments print, are in cmd/experiments/internal/paper.
package cost

import "time"

// Price pins the fiat conversion. The paper's footnote 1: "ETH price is 143
// USD/ETH and gas cost is 5 Gwei, as of Apr 2020".
type Price struct {
	ETHUSD  float64
	GasGwei float64
}

// PaperPrice returns the paper's snapshot.
func PaperPrice() Price { return Price{ETHUSD: 143, GasGwei: 5} }

// GasToUSD converts a gas amount to dollars.
func (p Price) GasToUSD(gas uint64) float64 {
	eth := float64(gas) * p.GasGwei * 1e-9
	return eth * p.ETHUSD
}

// VerificationGasModel is the Fig. 5 extrapolation: on-chain verification
// gas grows linearly with the (extrapolated) verification time, anchored at
// the paper's measured point -- 7.2 ms of verification for the 288-byte
// private proof costs ~589,000 gas total -- using the Ropsten ZK-SNARK
// verification transaction as the calibration baseline.
type VerificationGasModel struct {
	TxBaseGas       uint64  // intrinsic transaction gas
	CalldataGasByte uint64  // per non-zero calldata byte (proofs are dense)
	GasPerMs        float64 // compute gas per millisecond of verification
}

// PaperGasModel returns the model calibrated to the paper's anchor point.
func PaperGasModel() VerificationGasModel {
	m := VerificationGasModel{TxBaseGas: 21000, CalldataGasByte: 16}
	// Solve GasPerMs from the anchor: 589000 = base + 288*16 + 7.2*GasPerMs.
	anchorGas := 589000.0
	anchorMs := 7.2
	const proofBytes = 288
	m.GasPerMs = (anchorGas - float64(m.TxBaseGas) - float64(proofBytes*m.CalldataGasByte)) / anchorMs
	return m
}

// AuditGas returns the total gas of one audit verification transaction for
// a proof of the given size and the given verification time.
func (m VerificationGasModel) AuditGas(proofBytes int, verify time.Duration) uint64 {
	ms := float64(verify) / float64(time.Millisecond)
	return m.TxBaseGas + uint64(proofBytes)*m.CalldataGasByte + uint64(m.GasPerMs*ms)
}
