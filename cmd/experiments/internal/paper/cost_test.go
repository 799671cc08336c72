package paper

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
)

func TestFig5SeriesShape(t *testing.T) {
	plain, private := Fig5Series(cost.PaperGasModel())
	if len(plain) != 5 || len(private) != 5 {
		t.Fatalf("series lengths %d/%d", len(plain), len(private))
	}
	for i := range plain {
		// Monotone in verification time.
		if i > 0 && plain[i].Gas <= plain[i-1].Gas {
			t.Fatal("plain series not monotone")
		}
		// Privacy costs more at equal time (192 extra proof bytes),
		// but the gap is exactly the calldata delta: the paper's point
		// that privacy is nearly free on chain.
		gap := private[i].Gas - plain[i].Gas
		if gap != (288-96)*16 {
			t.Fatalf("privacy gap = %d gas, want %d", gap, (288-96)*16)
		}
	}
	// Range check against the figure: 0.4M..0.8M gas across 5..9 ms.
	if private[0].Gas < 400_000 || private[4].Gas > 800_000 {
		t.Fatalf("private series out of Fig. 5 range: %v..%v", private[0].Gas, private[4].Gas)
	}
}

func TestFeeModelFig6(t *testing.T) {
	f := PaperFeeModel()
	rows := Fig6Series(f)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper's Fig. 6: daily auditing over 360 days costs on the order of
	// $150 (comparable to Dropbox Business's $150/yr).
	var at360 Fig6Row
	for _, r := range rows {
		if r.DurationDays == 360 {
			at360 = r
		}
	}
	if at360.DailyUSD < 100 || at360.DailyUSD > 250 {
		t.Fatalf("daily/360d = $%.2f, want O($150)", at360.DailyUSD)
	}
	// Weekly is ~7x cheaper.
	ratio := at360.DailyUSD / at360.WeeklyUSD
	if math.Abs(ratio-7) > 0.01 {
		t.Fatalf("daily/weekly ratio = %.2f, want 7", ratio)
	}
	// Monotone in duration.
	for i := 1; i < len(rows); i++ {
		if rows[i].DailyUSD <= rows[i-1].DailyUSD {
			t.Fatal("fees not monotone in duration")
		}
	}
	// Redundancy multiplies cost.
	f10 := f
	f10.RedundancyFactor = 10
	if got := f10.totalUSD(360, 1); math.Abs(got-10*at360.DailyUSD) > 1e-9 {
		t.Fatal("redundancy factor not multiplicative")
	}
	if f.totalUSD(360, 0) != 0 {
		t.Fatal("zero interval should yield zero")
	}
}

func TestRandomnessCostRange(t *testing.T) {
	// Section VII-B prices per-round randomness at $0.01..$0.05.
	p := cost.PaperPrice()
	got := p.GasToUSD(ChallengeGasOverhead())
	if got < 0.01 || got > 0.05 {
		t.Fatalf("randomness cost $%.4f outside the paper's 0.01-0.05 range", got)
	}
}

func TestScalabilityFig10(t *testing.T) {
	m := PaperScalabilityModel()
	// Fig. 10 (left): ~1 GB/year around 10k users (the paper's curve tops
	// out near 1.1 GB/year).
	g10k := m.AnnualChainGrowthGB(10000)
	if g10k < 0.8 || g10k > 1.6 {
		t.Fatalf("10k users grow %.2f GB/yr, want ~1.1", g10k)
	}
	// Linear in users.
	if math.Abs(m.AnnualChainGrowthGB(5000)*2-g10k) > 1e-9 {
		t.Fatal("growth not linear in users")
	}
	// Section VII-D: ~2 tx/s and >= 5000 supported users with redundancy.
	tps := m.TxPerSecond()
	if tps < 1.5 || tps > 6 {
		t.Fatalf("throughput %.1f tx/s, want ~2-5", tps)
	}
	if m.SupportedUsers(10) < 5000 {
		t.Fatalf("supported users %d with 10x redundancy, want >= 5000", m.SupportedUsers(10))
	}
}

func TestAggregateProveTime(t *testing.T) {
	// Fig. 10 (right): 300 owners at ~66 ms/proof is ~20 s.
	got := AggregateProveTime(66*time.Millisecond, 300)
	if got != 19800*time.Millisecond {
		t.Fatalf("aggregate = %v", got)
	}
}

func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 9 {
		t.Fatalf("%d frameworks", len(rows))
	}
	out := FormatTableI(rows)
	for _, name := range []string{"IPFS", "Storj", "Sia", "Filecoin", "This work"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table missing %s:\n%s", name, out)
		}
	}
	// Only this work gets full marks on both efficiency columns.
	for _, f := range rows {
		full := f.ProverEff == yes && f.AuditorEff == yes
		if full != (f.Name == "This work") {
			t.Fatalf("unexpected efficiency grading for %s", f.Name)
		}
	}
	if no.String() != "x" || yes.String() != "#" || na.String() != "N/A" {
		t.Fatal("legend rendering wrong")
	}
}
