package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

// miniatures are every workload at a size that runs in a second or two; the
// names are the declared ones so reports can be checked against BENCHMARK.json.
func miniatures() []workload {
	small := auditSpec{engagements: 4, s: 4, fileBytes: 1 << 10, k: 4, roundsPerSec: 2, stagger: 2}
	cheat := small
	cheat.engagements, cheat.cheaters = 8, true
	point := auditSpec{engagements: 2, s: 50, fileBytes: 32 << 10, k: 300, roundsPerSec: 2, stagger: 2}
	return []workload{
		{"paper_point", func(c runConfig) (*result, error) { return runAudit(c, point) }},
		{"fleet_small", func(c runConfig) (*result, error) { return runAudit(c, small) }},
		{"fleet_cheaters", func(c runConfig) (*result, error) { return runAudit(c, cheat) }},
		{"sched_soak", func(c runConfig) (*result, error) {
			return runSoak(c, soakSpec{cycles: 2, engagementsPerSec: 200, rounds: 2, interval: 8, shards: 4, spillPerSec: 200, spillWindow: 64})
		}},
		{"onboard", func(c runConfig) (*result, error) {
			return runOnboard(c, onboardSpec{filesPerSec: 3, fileBytes: 8 << 10, s: 10, k: 20})
		}},
	}
}

func miniConfig(t *testing.T, trace bool) runConfig {
	dir := t.TempDir()
	return runConfig{
		seed: 7, seconds: 1, trace: trace, tmp: dir,
		tracePath:   dir + "/trace.jsonl",
		deadline:    time.Minute,
		probeBudget: time.Millisecond,
	}
}

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesProgram keeps BENCHMARK.json and the program's metric and
// workload tables in step.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []specMetric, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(emitted))
		}
		seen := map[string]bool{}
		for i, d := range declared {
			if d.Name != emitted[i].name || d.Unit != emitted[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), emitted %s (%s)", kind, i, d.Name, d.Unit, emitted[i].name, emitted[i].unit)
			}
			if !legalName.MatchString(d.Name) {
				t.Errorf("%s: illegal metric name %q", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: %s declared twice", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, d.Name, d.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestMiniatures runs every workload small, untraced and traced, through the
// driver's entry point and checks the report's shape: exit 0, nothing failed,
// exactly the declared metrics with their units, and no end-to-end zero.
func TestMiniatures(t *testing.T) {
	for _, w := range miniatures() {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name + "/untraced"
			defs := endToEnd
			if trace {
				name, defs = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				if code := drive(w, miniConfig(t, trace), &out); code != 0 {
					t.Fatalf("exit code %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not a report: %v\n%s", err, out.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					if !ok {
						t.Errorf("%s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", d.name, m.Value)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace && !strings.Contains(out.String(), "unattributed") {
					t.Errorf("traced run printed no budget table with an unattributed line:\n%s", out.String())
				}
				if trace && w.name == "fleet_cheaters" && rep.Metrics["core.bisect_extra_finalexps"].Value <= 0 {
					t.Errorf("cheaters were slashed without any bisection")
				}
				if trace && w.name == "fleet_small" && rep.Metrics["core.bisect_extra_finalexps"].Value != 0 {
					t.Errorf("an all-honest fleet bisected")
				}
			})
		}
	}
}

// TestOracleCatchesUnscheduledCheat has one engagement cheat while the oracle
// expects an all-honest fleet: operations must be counted failed and the
// driver's exit code must say so.
func TestOracleCatchesUnscheduledCheat(t *testing.T) {
	spec := auditSpec{engagements: 4, s: 4, fileBytes: 1 << 10, k: 4, roundsPerSec: 3, stagger: 2}
	honest := []int{-1, -1, -1, -1}
	rogue := []int{-1, -1, 1, -1}
	w := workload{"fleet_cheaters", func(c runConfig) (*result, error) { return runAuditPlanned(c, spec, honest, rogue) }}
	var out bytes.Buffer
	if code := drive(w, miniConfig(t, false), &out); code == 0 {
		t.Fatalf("exit code 0 with an unscheduled cheater\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("correct=%v failed=%d, want a failed share above 0", rep.Correct, rep.Failed)
	}
}

// TestCheatPlanIsSeedIndependentInSize checks that seeds move which
// engagements cheat but not how many, nor the rounds they cheat at.
func TestCheatPlanIsSeedIndependentInSize(t *testing.T) {
	spec := auditSpec{engagements: 64, stagger: 4, cheaters: true}
	tally := func(seed int64) (n, sum int) {
		for _, r := range spec.cheatPlan(seed, 28) {
			if r >= 0 {
				n++
				sum += r
			}
		}
		return
	}
	n1, s1 := tally(1)
	n2, s2 := tally(2)
	if n1 != 16 || n1 != n2 || s1 != s2 {
		t.Fatalf("seed 1: %d cheaters, rounds sum %d; seed 2: %d, %d", n1, s1, n2, s2)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// TestSelfTime checks the span arithmetic: a span's self time is its duration
// minus the union of its children's cover, children being nested spans and
// linked ones, overlap counted once and cover clipped to the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100, Links: []int64{5}},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps a by 10
		{Name: "a.child", ID: 4, Parent: 2, Start: 12, End: 17},
		{Name: "shared", ID: 5, Start: 80, End: 120}, // linked; 20 of it falls inside root
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40, 2: 15, 3: 30, 4: 5, 5: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	if got := selfByName(spans)["a"]; got != 15 {
		t.Errorf("selfByName[a] = %d, want 15", got)
	}
}

// TestPhaseAtReferenceSpeed checks the scaling: a phase whose kernel samples
// read twice the reference time ran on a host half as fast, so with a host
// share of 1 its times halve and its throughput doubles, and with a share of
// a half they move by the square root of two; the clocks stand still during a
// sample.
func TestPhaseAtReferenceSpeed(t *testing.T) {
	p := &phase{
		share:  1,
		kernel: []float64{1.5 * refChunkSeconds, 2.5 * refChunkSeconds},
		wall:   10 * time.Second, cpu: 4 * time.Second,
		ops: 100, latency: []float64{30, 10, 20},
	}
	res := newResult()
	p.into(res)
	for name, want := range map[string]float64{
		"host.slowdown": 2, "throughput_per_s": 20, "host.raw_throughput_per_s": 10,
		"cpu_ms_per_op": 20, "latency_ms_p50": 10, "latency_ms_p90": 14,
	} {
		if got := res.metrics[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	p.share = 0.5
	if got := p.scale(); math.Abs(got-math.Sqrt2) > 1e-9 {
		t.Errorf("scale at share 0.5 = %v, want %v", got, math.Sqrt2)
	}

	var timed phase
	start := time.Now()
	timed.begin()
	time.Sleep(20 * time.Millisecond)
	timed.sample()
	timed.end()
	total := time.Since(start)
	if len(timed.kernel) != 3 {
		t.Fatalf("%d kernel samples, want 3", len(timed.kernel))
	}
	// At least half of a sample's chunks took its median or longer.
	sampling := time.Duration(sum(timed.kernel) * kernelChunks / 2 * float64(time.Second))
	if timed.wall < 20*time.Millisecond || total-timed.wall < sampling {
		t.Errorf("phase clock read %v of %v with %v of sampling: the clock did not stand still", timed.wall, total, sampling)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "latency", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput", Better: "higher", Bound: 0.10}
	m := func(min, med, max float64) *suiteMetric { return &suiteMetric{Min: min, Median: med, Max: max} }
	for _, c := range []struct {
		name string
		spec specMetric
		a, b *suiteMetric
		want string
	}{
		{"steady", lower, m(99, 100, 101), m(100, 102, 103), verdictWithin},
		{"slower", lower, m(99, 100, 101), m(118, 120, 121), verdictWorse},
		{"faster", lower, m(99, 100, 101), m(79, 80, 81), verdictBetter},
		{"throughput drop", higher, m(99, 100, 101), m(79, 80, 81), verdictWorse},
		{"noisy and overlapping", lower, m(90, 100, 115), m(95, 112, 120), verdictUnresolved},
		{"noisy but separated", lower, m(90, 100, 115), m(150, 160, 170), verdictWorse},
	} {
		if got, _ := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
