package main

import "fmt"

// metricDef names one reported number and its unit. BENCHMARK.json at the
// repo root declares the same names and units (plus direction and bound);
// the self-test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by untraced runs on
// every workload. An "op" is a settled audit round on the audit workloads and
// sched_soak, and a file made auditable on onboard; latency is per op except
// on sched_soak, where the program only exposes tick boundaries and latency
// is per scheduler tick.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"gas_per_op", "gas"},
	{"chain_bytes_per_op", "B"},
	{"rss_peak_mib", "MiB"},
}

// perLayer is reported by traced runs. A metric a workload does not exercise
// reads 0 there (no spill store on the real path, no wire on sched_soak).
var perLayer = []metricDef{
	// bn256: probes of the pairing kernel's public functions.
	{"bn256.miller_loop_us", "us"},
	{"bn256.final_exp_us", "us"},
	{"bn256.pair_us", "us"},
	{"bn256.miller_batch32_ms", "ms"},
	{"bn256.msm_k_ms", "ms"},
	{"bn256.g1_scalar_mult_us", "us"},
	{"bn256.g1_base_mult_us", "us"},
	{"bn256.hash_to_g1_us", "us"},
	{"bn256.gt_scalar_mult_us", "us"},
	// core: probes at the workload's own (s, file size, k), plus the run's pairing counts.
	{"core.prove_ms_p50", "ms"},
	{"core.prove_ecc_share", "ratio"},
	{"core.verify_ms_per_proof_b1", "ms"},
	{"core.verify_ms_per_proof_b32", "ms"},
	{"core.miller_per_proof", "count"},
	{"core.finalexp_per_block", "count"},
	{"core.bisect_extra_finalexps", "count"},
	{"core.setup_mib_per_s", "MiB/s"},
	{"core.verify_auths_ms", "ms"},
	{"storage.prepare_mib_per_s", "MiB/s"},
	// wire: marshal, frame, unframe, unmarshal over a bytes.Buffer.
	{"wire.round_frames_us", "us"},
	{"wire.accept_frame_ms", "ms"},
	{"wire.bytes_per_round", "B"},
	// remote: spans around the client calls the run makes, and idle probes.
	{"remote.respond_ms_p50", "ms"},
	{"remote.respond_ms_p95", "ms"},
	{"remote.busy_s", "s"},
	{"remote.respond_idle_ms_p50", "ms"},
	{"remote.overhead_ms", "ms"},
	{"remote.accept_ms_p50", "ms"},
	{"remote.retries", "count"},
	{"remote.overloads", "count"},
	{"remote.frame_errors", "count"},
	// dsnaudit: spans around settlement and the owner pipeline.
	{"dsnaudit.settle_block_ms_p50", "ms"},
	{"dsnaudit.settle_ms_per_round", "ms"},
	{"dsnaudit.settle_batch_p50", "count"},
	{"dsnaudit.settle_wait_ms_p50", "ms"},
	{"dsnaudit.outsource_ms_p50", "ms"},
	{"dsnaudit.engage_ms_p50", "ms"},
	// sched: tick intervals and the scheduler's, journal's and spill store's own counters.
	{"sched.tick_ms_p50", "ms"},
	{"sched.tick_ms_p90", "ms"},
	{"sched.ticks", "count"},
	{"sched.due_per_tick", "count"},
	{"sched.deferrals", "count"},
	{"sched.retries", "count"},
	{"sched.overloads", "count"},
	{"sched.journal_appends_per_round", "count"},
	{"sched.journal_bytes_per_round", "B"},
	{"sched.journal_writes_per_round", "count"},
	{"sched.journal_fsyncs", "count"},
	{"sched.checkpoints", "count"},
	{"sched.journal_tax_pct", "%"},
	{"sched.checkpoint_ms_p50", "ms"},
	{"sched.spill_ms_per_round", "ms"},
	{"sched.spill_spills", "count"},
	{"sched.spill_hydrates", "count"},
	{"sched.spill_resident_peak", "count"},
	{"chain.blocks", "count"},
	{"chain.blocks_per_round", "count"},
	// proc: runtime.MemStats movement over the timed phase.
	{"proc.alloc_mib_per_round", "MiB"},
	{"proc.allocs_per_round", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.gc_cycles", "count"},
	{"proc.heap_sys_mib", "MiB"},
	// trace: the traced run's own end-to-end numbers; set against the untraced
	// run's they give the tracing overhead.
	{"trace.throughput_per_s", "1/s"},
	{"trace.latency_ms_p50", "ms"},
	{"trace.unattributed_cpu_pct", "%"},
	// host: what the reference-speed scaling did to this run (refclock.go).
	{"host.slowdown", "ratio"},
	{"host.raw_throughput_per_s", "1/s"},
}

// result is what one run of one workload reports.
type result struct {
	attempted int
	failed    int
	problems  []string // the first few oracle findings, for stderr
	metrics   map[string]float64
	samples   map[string]int // sample count behind each timing
	budget    string         // traced runs: the per-round budget table
	host      string         // the timed phase's kernel samples and its numbers as measured
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

// fail counts one operation with the wrong outcome.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}
