package main

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"time"

	"repro/dsnaudit"
	"repro/internal/bn256"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wire"
)

// probeSpec is the operating point the per-layer probes run at: the
// workload's own chunk size, file size and challenge size.
type probeSpec struct{ s, fileBytes, k int }

// probeSet is the unit cost of each layer's public functions, called
// directly, unloaded, one worker, on state shaped like the workload's.
type probeSet map[string]float64

func (p probeSet) into(res *result) {
	for k, v := range p {
		res.set(k, v)
	}
}

// timeIt returns the median duration of fn over as many calls as fit the
// probe budget (at least three).
func timeIt(budget time.Duration, fn func()) time.Duration {
	var d []time.Duration
	for start := time.Now(); len(d) < 3 || time.Since(start) < budget; {
		t := time.Now()
		fn()
		d = append(d, time.Since(t))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runProbes measures every probe metric at the given operating point.
func runProbes(spec probeSpec, cfg runConfig) (probeSet, error) {
	p := probeSet{}
	budget := cfg.probeBudget
	rng := rand.New(rand.NewSource(cfg.seed))
	const mib = 1 << 20

	// bn256 kernels on random inputs.
	scalar := func() *big.Int { return new(big.Int).Rand(rng, bn256.Order) }
	g1 := new(bn256.G1).ScalarBaseMult(scalar())
	g2 := new(bn256.G2).ScalarBaseMult(scalar())
	k1 := scalar()
	ml := bn256.MillerLoop(g1, g2)
	gt := bn256.Pair(g1, g2)
	p["bn256.miller_loop_us"] = us(timeIt(budget, func() { bn256.MillerLoop(g1, g2) }))
	p["bn256.final_exp_us"] = us(timeIt(budget, func() { bn256.FinalExponentiate(ml) }))
	p["bn256.pair_us"] = us(timeIt(budget, func() { bn256.Pair(g1, g2) }))
	p["bn256.g1_scalar_mult_us"] = us(timeIt(budget, func() { new(bn256.G1).ScalarMult(g1, k1) }))
	p["bn256.g1_base_mult_us"] = us(timeIt(budget, func() { new(bn256.G1).ScalarBaseMult(k1) }))
	p["bn256.gt_scalar_mult_us"] = us(timeIt(budget, func() { new(bn256.GT).ScalarMult(gt, k1) }))
	tag := []byte("bench-probe-tag")
	p["bn256.hash_to_g1_us"] = us(timeIt(budget, func() { bn256.HashToG1(tag) }))
	as, bs := make([]*bn256.G1, 32), make([]*bn256.G2, 32)
	for i := range as {
		as[i] = new(bn256.G1).ScalarBaseMult(scalar())
		bs[i] = g2
	}
	p["bn256.miller_batch32_ms"] = ms(timeIt(budget, func() { bn256.MillerBatch(as, bs, 1) }))
	points, scalars := make([]*bn256.G1, spec.k), make([]*big.Int, spec.k)
	for i := range points {
		points[i] = as[i%len(as)]
		scalars[i] = scalar()
	}
	p["bn256.msm_k_ms"] = ms(timeIt(budget, func() { new(bn256.G1).MultiScalarMultParallel(points, scalars, 1) }))

	// Owner side: storage.Prepare and core.Setup over one file of the
	// workload's size; the result is the state the remaining probes use.
	data := fileBytes(cfg.seed, 1<<19, spec.fileBytes)
	encKey := make([]byte, storage.KeySize)
	rng.Read(encKey)
	prep := timeIt(budget, func() { storage.Prepare("probe", encKey, data, erasureK, erasureM, rng) })
	p["storage.prepare_mib_per_s"] = float64(len(data)) / mib / prep.Seconds()
	sk, err := core.KeyGen(spec.s, nil)
	if err != nil {
		return nil, err
	}
	ef, err := core.EncodeFile(data, spec.s)
	if err != nil {
		return nil, err
	}
	var auths []*core.Authenticator
	setup := timeIt(0, func() { auths, err = core.SetupParallel(sk, ef, 1) })
	if err != nil {
		return nil, err
	}
	p["core.setup_mib_per_s"] = float64(len(data)) / mib / setup.Seconds()
	sample := make([]int, 8)
	for i := range sample {
		sample[i] = i * ef.NumChunks() / len(sample)
	}
	p["core.verify_auths_ms"] = ms(timeIt(budget, func() { err = core.VerifyAuthenticators(sk.Pub, ef, auths, sample) }))
	if err != nil {
		return nil, err
	}

	// Prover and verifier.
	prover, err := core.NewProver(sk.Pub, ef, auths)
	if err != nil {
		return nil, err
	}
	prover.Workers = 1
	items := make([]*core.BatchItem, 32)
	var proveMs, eccShare []float64
	for i := range items {
		ch, err := core.NewChallenge(spec.k, rng)
		if err != nil {
			return nil, err
		}
		var st core.ProveStats
		t := time.Now()
		proof, err := prover.ProvePrivate(ch, &st, nil)
		if err != nil {
			return nil, err
		}
		proveMs = append(proveMs, ms(time.Since(t)))
		if total := st.ECC + st.Zp; total > 0 {
			eccShare = append(eccShare, float64(st.ECC)/float64(total))
		}
		items[i] = &core.BatchItem{Pub: sk.Pub, NumChunks: ef.NumChunks(), Challenge: ch, Proof: proof}
	}
	p["core.prove_ms_p50"] = median(proveMs)
	p["core.prove_ecc_share"] = median(eccShare)
	ok := true
	check := func(v []bool) {
		for _, b := range v {
			ok = ok && b
		}
	}
	p["core.verify_ms_per_proof_b1"] = ms(timeIt(budget, func() { check(core.VerifyBatchParallel(items[:1], nil, 1)) }))
	p["core.verify_ms_per_proof_b32"] = ms(timeIt(budget, func() { check(core.VerifyBatchParallel(items, nil, 1)) })) / 32
	if !ok {
		return nil, fmt.Errorf("probe: an honest proof failed batch verification")
	}

	// Wire: one round's two frames, and the audit-data handoff frame.
	const addr = chain.Address("audit:owner:sp-0:probe")
	proofBytes, err := items[0].Proof.Marshal()
	if err != nil {
		return nil, err
	}
	var wireErr error
	var roundBytes int
	trip := func(typ wire.Type, marshal func() ([]byte, error), unmarshal func([]byte) error) int {
		payload, err := marshal()
		if err != nil {
			wireErr = err
			return 0
		}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, &wire.Frame{Type: typ, ID: 1, Payload: payload}); err != nil {
			wireErr = err
			return 0
		}
		n := buf.Len()
		f, err := wire.ReadFrame(&buf)
		if err == nil {
			err = unmarshal(f.Payload)
		}
		if err != nil {
			wireErr = err
		}
		return n
	}
	p["wire.round_frames_us"] = us(timeIt(budget, func() {
		roundBytes = trip(wire.MsgChallenge,
			(&wire.Challenge{Contract: addr, Chal: items[0].Challenge}).Marshal,
			func(b []byte) error { _, err := wire.UnmarshalChallenge(b); return err })
		roundBytes += trip(wire.MsgProof,
			(&wire.Proof{Contract: addr, Proof: proofBytes}).Marshal,
			func(b []byte) error { _, err := wire.UnmarshalProof(b); return err })
	}))
	p["wire.bytes_per_round"] = float64(roundBytes)
	p["wire.accept_frame_ms"] = ms(timeIt(budget, func() {
		trip(wire.MsgAcceptAuditData,
			(&wire.AcceptAuditData{Contract: addr, SampleSize: 8, PublicKey: sk.Pub, File: ef, Auths: auths}).Marshal,
			func(b []byte) error { _, err := wire.UnmarshalAcceptAuditData(b); return err })
	}))
	if wireErr != nil {
		return nil, fmt.Errorf("probe: wire: %w", wireErr)
	}

	// Remote: sequential, unloaded round trips against an idle server.
	w, err := newWorld(cfg.seed, spec.s, nil)
	if err != nil {
		return nil, err
	}
	defer w.close()
	ctx := context.Background()
	var client dsnaudit.ProviderTransport = w.clients[0]
	if err := client.AcceptAuditData(ctx, addr, sk.Pub, ef, auths, 8); err != nil {
		return nil, err
	}
	w.nodes[0].Workers = 1
	if pr, ok := w.nodes[0].Prover(addr); ok {
		pr.Workers = 1
	}
	// Each remote round trip is paired with the same proof made locally right
	// after it, so the host's speed drifting between the two cancels out of
	// their difference.
	var idle, overhead []float64
	for start := time.Now(); len(idle) < 3 || time.Since(start) < budget; {
		ch := items[len(idle)%len(items)].Challenge
		t0 := time.Now()
		if _, err := client.Respond(ctx, addr, ch); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := prover.ProvePrivate(ch, nil, nil); err != nil {
			return nil, err
		}
		idle = append(idle, ms(t1.Sub(t0)))
		overhead = append(overhead, ms(t1.Sub(t0))-ms(time.Since(t1)))
	}
	p["remote.respond_idle_ms_p50"] = median(idle)
	p["remote.overhead_ms"] = median(overhead)
	return p, nil
}
