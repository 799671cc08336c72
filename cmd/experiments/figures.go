package main

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/cmd/experiments/internal/paper"
	"repro/internal/core"
	"repro/internal/cost"
)

func runFig4(ctx *expCtx) error {
	ctx.printf("%-6s %-22s %-22s %-24s %s\n", "s", "w/o on-chain privacy", "w/ on-chain privacy", "body, once per owner", "per contract")
	for _, s := range []int{10, 20, 50, 100} {
		sk, err := core.KeyGen(s, rand.Reader)
		if err != nil {
			return err
		}
		var size, body [2]int
		var ref int
		for i, privacy := range []bool{false, true} {
			b, name, err := sk.Pub.KeyBody(privacy)
			if err != nil {
				return err
			}
			size[i], body[i], ref = sk.Pub.MarshalSize(privacy), len(b), sha256.Size+len(name)
		}
		ctx.printf("%-6d %-22s %-22s %-24s %d B\n", s,
			fmt.Sprintf("%d B (%.2f KB)", size[0], float64(size[0])/1024),
			fmt.Sprintf("%d B (%.2f KB)", size[1], float64(size[1])/1024),
			fmt.Sprintf("%d / %d B", body[0], body[1]), ref)
	}
	ctx.printf("paper: ~0.5 KB at s=10 up to ~3.2/3.6 KB at s=100\n")
	ctx.printf("on chain: the body (the key minus its Name) is posted once per owner key and chain; each contract posts the body's SHA-256 digest and the file's Name\n")
	return nil
}

func runFig5(ctx *expCtx) error {
	m := cost.PaperGasModel()
	plain, private := paper.Fig5Series(m)
	ctx.printf("%-12s %-26s %-26s\n", "verify (ms)", "w/o privacy (96-B proof)", "w/ privacy (288-B proof)")
	for i := range plain {
		ctx.printf("%-12.0f %-26s %-26s\n", plain[i].VerifyMs,
			fmt.Sprintf("%d gas (%.2f M)", plain[i].Gas, float64(plain[i].Gas)/1e6),
			fmt.Sprintf("%d gas (%.2f M)", private[i].Gas, float64(private[i].Gas)/1e6))
	}
	ctx.printf("anchor: 288-B proof at 7.2 ms -> %d gas (paper: ~589,000)\n",
		m.AuditGas(288, 7200*time.Microsecond))
	return nil
}

func runFig6(ctx *expCtx) error {
	f := paper.PaperFeeModel()
	rows := paper.Fig6Series(f)
	ctx.printf("%-16s %-18s %-18s\n", "duration (days)", "daily auditing", "weekly auditing")
	for _, r := range rows {
		ctx.printf("%-16d $%-17.2f $%-17.2f\n", r.DurationDays, r.DailyUSD, r.WeeklyUSD)
	}
	ctx.printf("paper: daily/360d lands near the ~$150/yr of commercial cloud storage\n")
	return nil
}

// runFig7 measures the owner's preprocessing throughput per s and scales to
// the paper's 1 GB workload ("this pre-processing time is proportional to
// the file size").
func runFig7(ctx *expCtx) error {
	sValues := []int{10, 20, 30, 50, 80, 100, 200, 300, 500}
	measureBytes := 1 << 20 // 1 MiB measured, scaled to 1 GiB
	if ctx.quick {
		measureBytes = 256 << 10
	}
	ctx.printf("%-6s %-16s %-16s %-14s\n", "s", "measured (MiB)", "scaled to 1 GB", "MB/s")
	for _, s := range sValues {
		sk, err := core.KeyGen(s, rand.Reader)
		if err != nil {
			return err
		}
		data := make([]byte, measureBytes)
		rand.Read(data)
		ef, err := core.EncodeFile(data, s)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := core.Setup(sk, ef); err != nil {
			return err
		}
		elapsed := time.Since(start)
		scaled := time.Duration(float64(elapsed) * float64(1<<30) / float64(measureBytes))
		mbps := float64(measureBytes) / (1 << 20) / elapsed.Seconds()
		ctx.printf("%-6d %-16s %-16s %-14.2f\n", s, fmtDur(elapsed), fmtDur(scaled), mbps)
	}

	// "w/o s param": the classic per-block scheme is s=1.
	ctx.printf("\nw/o s parameter (per-block authenticators, s=1):\n")
	smallBytes := 64 << 10
	if ctx.quick {
		smallBytes = 16 << 10
	}
	sk, err := core.KeyGen(1, rand.Reader)
	if err != nil {
		return err
	}
	data := make([]byte, smallBytes)
	rand.Read(data)
	ef, err := core.EncodeFile(data, 1)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := core.Setup(sk, ef); err != nil {
		return err
	}
	elapsed := time.Since(start)
	scaled := time.Duration(float64(elapsed) * float64(1<<30) / float64(smallBytes))
	ctx.printf("%-6d %-16s %-16s\n", 1, fmtDur(elapsed), fmtDur(scaled))
	ctx.printf("paper: w/ s param 200-600 s (optimum s~50, 35.31 MB/s); w/o 3000-4000 s\n")
	return nil
}

// runFig8 measures the prover's ECC/Zp time split at k=300 across s.
func runFig8(ctx *expCtx) error {
	const k = 300
	trials := 3
	if ctx.quick {
		trials = 1
	}
	ctx.printf("%-6s %-12s %-12s %-12s %-12s %-12s\n",
		"s", "ECC (ms)", "Zp (ms)", "ECC+priv", "Zp+priv", "total+priv")
	for _, s := range []int{10, 20, 50, 100} {
		prover, err := buildProver(s, k)
		if err != nil {
			return err
		}
		var plainECC, plainZp, privECC, privZp, privTotal time.Duration
		for t := 0; t < trials; t++ {
			ch, err := core.NewChallenge(k, rand.Reader)
			if err != nil {
				return err
			}
			var st core.ProveStats
			if _, err := prover.Prove(ch, &st); err != nil {
				return err
			}
			plainECC += st.ECC
			plainZp += st.Zp

			var stP core.ProveStats
			start := time.Now()
			if _, err := prover.ProvePrivate(ch, &stP, rand.Reader); err != nil {
				return err
			}
			privTotal += time.Since(start)
			privECC += stP.ECC
			privZp += stP.Zp
		}
		n := time.Duration(trials)
		ctx.printf("%-6d %-12.1f %-12.1f %-12.1f %-12.1f %-12.1f\n", s,
			ms(plainECC/n), ms(plainZp/n), ms(privECC/n), ms(privZp/n), ms(privTotal/n))
	}
	ctx.printf("paper: ECC dominates; total 15-45 ms; privacy adds one GT exponentiation\n")
	return nil
}

func runFig9(ctx *expCtx) error {
	trials := 3
	if ctx.quick {
		trials = 1
	}
	const s = 50
	confs := []float64{0.91, 0.93, 0.95, 0.97, 0.99}
	ctx.printf("%-12s %-6s %-18s %-18s\n", "confidence", "k", "w/o privacy", "w/ privacy")
	for _, conf := range confs {
		k := paper.ChunksForConfidence(conf, 0.01)
		prover, err := buildProver(s, k)
		if err != nil {
			return err
		}
		var plain, private time.Duration
		for t := 0; t < trials; t++ {
			ch, err := core.NewChallenge(k, rand.Reader)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := prover.Prove(ch, nil); err != nil {
				return err
			}
			plain += time.Since(start)
			start = time.Now()
			if _, err := prover.ProvePrivate(ch, nil, rand.Reader); err != nil {
				return err
			}
			private += time.Since(start)
		}
		n := time.Duration(trials)
		ctx.printf("%-12s %-6d %-18s %-18s\n", fmt.Sprintf("%.0f%%", conf*100), k,
			fmtDur(plain/n), fmtDur(private/n))
	}
	ctx.printf("paper: 15-45 ms rising with k (240 -> 460); privacy adds a near-constant offset\n")
	return nil
}

func runFig10(ctx *expCtx) error {
	m := paper.PaperScalabilityModel()
	ctx.printf("left: annual blockchain growth (daily audits per user)\n")
	ctx.printf("%-10s %-14s\n", "users", "GB/year")
	for _, users := range []int{1000, 2000, 5000, 8000, 10000} {
		ctx.printf("%-10d %-14.2f\n", users, m.AnnualChainGrowthGB(users))
	}
	ctx.printf("throughput: %.1f tx/s; supported users at 10x redundancy: %d (paper: ~2 tx/s, 5000 users)\n\n",
		m.TxPerSecond(), m.SupportedUsers(10))

	// Right: measured per-contract proving, aggregated linearly.
	const s, k = 50, 300
	prover, err := buildProver(s, k)
	if err != nil {
		return err
	}
	ch, err := core.NewChallenge(k, rand.Reader)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := prover.ProvePrivate(ch, nil, rand.Reader); err != nil {
		return err
	}
	per := time.Since(start)

	ctx.printf("right: total proving time per provider (measured %.0f ms/contract)\n", ms(per))
	ctx.printf("%-10s %-14s\n", "owners", "prove all")
	for _, owners := range []int{10, 20, 50, 100, 150, 300} {
		ctx.printf("%-10d %-14s\n", owners, fmtDur(paper.AggregateProveTime(per, owners)))
	}
	ctx.printf("paper: up to ~25 s at 300 owners (linear regression)\n")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// buildProver makes a prover over a file with at least `chunks` chunks of
// size s.
func buildProver(s, chunks int) (*core.Prover, error) {
	sk, err := core.KeyGen(s, rand.Reader)
	if err != nil {
		return nil, err
	}
	data := make([]byte, chunks*s*core.BlockSize)
	rand.Read(data)
	ef, err := core.EncodeFile(data, s)
	if err != nil {
		return nil, err
	}
	auths, err := core.Setup(sk, ef)
	if err != nil {
		return nil, err
	}
	return core.NewProver(sk.Pub, ef, auths)
}
