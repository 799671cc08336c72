// Command bench is the repository's one real-path benchmark: settled audit
// rounds over loopback TCP, the group-commit journal and the batched pairing
// check, with per-layer attribution measured from outside the program.
//
// The driver's contract (see BENCHMARK.json at the repo root):
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload in this process and prints one JSON object as the last
// line of standard output. Without --workload it runs every workload -reps
// times, each in a fresh child process, and prints medians; -compare a.json
// b.json judges two result files by the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// One run takes several samples of each part of set-up and reports medians:
// the cheap fixed part (chain, keys, servers) is built fixedReps times, the
// fleet is engaged in setupReps batches.
const (
	fixedReps = 15
	setupReps = 5
)

// workload is one set of inputs; run measures it in this process.
type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

// hostShares says how much of the host's slowness, as the reference kernel
// reads it, a workload's times follow (refclock.go): fitted per workload over
// runs in both states of the reference box (README.md, "Times at the
// reference speed").
type hostShares struct{ timed, setup float64 }

// The sizes are frozen here. Work per run is fixed by (--seconds, --seed):
// each size below is per requested second, calibrated on the 2-core reference
// box so the timed phase lasts about --seconds there (README.md, "Sizes").
var workloads = []workload{
	{"paper_point", func(c runConfig) (*result, error) {
		return runAudit(c, auditSpec{engagements: 16, s: 50, fileBytes: 512 << 10, k: 300, roundsPerSec: 1.8, stagger: 4, host: hostShares{0.85, 0.85}})
	}},
	{"fleet_small", func(c runConfig) (*result, error) {
		return runAudit(c, auditSpec{engagements: 64, s: 4, fileBytes: 2 << 10, k: 8, roundsPerSec: 2.5, stagger: 4, host: hostShares{0.7, 0.8}})
	}},
	{"fleet_cheaters", func(c runConfig) (*result, error) {
		return runAudit(c, auditSpec{engagements: 64, s: 4, fileBytes: 2 << 10, k: 8, roundsPerSec: 2.5, stagger: 4, cheaters: true, host: hostShares{0.75, 0.8}})
	}},
	{"sched_soak", func(c runConfig) (*result, error) {
		return runSoak(c, soakSpec{cycles: 8, engagementsPerSec: 1340, rounds: 2, interval: 64, shards: 16, spillPerSec: 670, spillWindow: 1024, host: hostShares{0.5, 0.8}})
	}},
	{"onboard", func(c runConfig) (*result, error) {
		return runOnboard(c, onboardSpec{filesPerSec: 11, fileBytes: 128 << 10, s: 50, k: 300, host: hostShares{0.75, 0.85}})
	}},
}

// runConfig is what the driver's flags say about one run.
type runConfig struct {
	seed        int64
	seconds     float64
	trace       bool
	tmp         string        // parent of journal and spill directories; "" is the system default
	tracePath   string        // where a traced run writes its spans
	deadline    time.Duration // a run that is still going by then has failed
	probeBudget time.Duration // per probe
}

// report is the driver-facing JSON object.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload in this process and print the driver's JSON line; a comma-separated list or nothing runs the suite")
	seed := fs.Int64("seed", 1, "derives file bytes, the beacon seed and the cheater schedule")
	seconds := fs.Float64("seconds", 10, "how long the timed phase should last on the reference box; fixes the amount of work")
	trace := fs.Int("trace", 0, "1 records spans, attaches the metrics registry, runs the probes and reports the per-layer metrics")
	reps := fs.Int("reps", 3, "suite: runs per workload")
	out := fs.String("out", "bench/results/latest.json", "suite: result file")
	compare := fs.Bool("compare", false, "compare two suite result files: bench -compare a.json b.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if runtime.NumCPU() < cores {
		fmt.Fprintf(os.Stderr, "bench: needs at least %d CPUs, this machine has %d\n", cores, runtime.NumCPU())
		return 2
	}
	runtime.GOMAXPROCS(cores)
	// A process fresh from exec runs the first kernel samples at half speed.
	for i := 0; i < 3; i++ {
		refKernel()
	}
	if *name == "" || strings.Contains(*name, ",") {
		return runSuite(suiteConfig{names: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, reps: *reps, out: *out})
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		tracePath:   filepath.Join("bench", "results", "trace-"+w.name+".jsonl"),
		deadline:    150 * time.Second,
		probeBudget: 150 * time.Millisecond,
	}
	return drive(w, cfg, os.Stdout)
}

// drive runs one workload for the driver: the budget table and sample counts,
// then the report as the last line. It returns the exit code, which is 0 only
// when every operation had the right outcome.
func drive(w workload, cfg runConfig, stdout io.Writer) int {
	rep, text, err := runOne(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n", text, line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs a workload and shapes its result for the driver: every
// end-to-end metric untraced, every per-layer metric traced.
func runOne(w workload, cfg runConfig) (*report, string, error) {
	res, err := w.run(cfg)
	if err != nil {
		return nil, "", err
	}
	res.set("rss_peak_mib", rssPeakMiB())
	// A traced run's own end-to-end numbers, to set against an untraced run's.
	res.set("trace.throughput_per_s", res.metrics["throughput_per_s"])
	res.set("trace.latency_ms_p50", res.metrics["latency_ms_p50"])
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
	}
	if n, ok := res.samples["latency_ms_p90"]; ok && tailPercentile(n) < 90 {
		fmt.Fprintf(os.Stderr, "bench: %s: latency_ms_p90 rests on %d samples, which support no percentile above p%g\n", w.name, n, tailPercentile(n))
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := &report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: res.metrics[d.name], Unit: d.unit}
	}
	if !cfg.trace {
		for _, d := range defs {
			if res.metrics[d.name] == 0 {
				return nil, "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
		}
	}
	return rep, res.budget + res.host + sampleCounts(res), nil
}

// sampleCounts renders the sample count behind each timing.
func sampleCounts(res *result) string {
	names := make([]string, 0, len(res.samples))
	for n := range res.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("samples:")
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, res.samples[n])
	}
	b.WriteString("\n")
	return b.String()
}
