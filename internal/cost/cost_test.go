package cost

import (
	"math"
	"testing"
	"time"
)

func TestGasToUSD(t *testing.T) {
	p := PaperPrice()
	// 589k gas at 5 Gwei and 143 USD/ETH: ~0.42 USD (the paper's own
	// Fig. 6 anchor: ~150 USD for 360 daily audits).
	got := p.GasToUSD(589000)
	if math.Abs(got-0.421) > 0.01 {
		t.Fatalf("589k gas = $%.4f, want ~$0.42", got)
	}
}

func TestPaperGasModelAnchor(t *testing.T) {
	m := PaperGasModel()
	got := m.AuditGas(288, 7200*time.Microsecond)
	if got < 588000 || got > 590000 {
		t.Fatalf("anchor gas = %d, want ~589000", got)
	}
	// The plain 96-byte proof must be strictly cheaper.
	plain := m.AuditGas(96, 7200*time.Microsecond)
	if plain >= got {
		t.Fatal("plain proof not cheaper than private proof")
	}
}
