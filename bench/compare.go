package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json at the repo root: the one place that fixes each
// end-to-end metric's direction and the bound by which it may worsen.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json from the repo root or from bench/.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's reps on two sides. worsening is how far b's median
// is on the wrong side of a's, as a share of a's. A row is unresolved when
// either side's own rep-to-rep spread is wider than the bound and the two
// ranges overlap: the runs cannot tell the sides apart at that resolution.
func judge(m specMetric, a, b *suiteMetric) (verdict string, worsening float64) {
	if a.Median == 0 {
		return verdictUnresolved, 0
	}
	worsening = (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worsening = -worsening
	}
	spread := func(x *suiteMetric) float64 {
		if x.Median == 0 {
			return 0
		}
		return (x.Max - x.Min) / x.Median
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case overlap && (spread(a) > m.Bound || spread(b) > m.Bound):
		return verdictUnresolved, worsening
	case worsening > m.Bound:
		return verdictWorse, worsening
	case worsening < -m.Bound:
		return verdictBetter, worsening
	}
	return verdictWithin, worsening
}

// compareFiles prints a markdown table of every (metric, workload) row of two
// suite result files and returns non-zero on any worse row or higher failed
// share.
func compareFiles(pathA, pathB string, w io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readSuiteFile(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readSuiteFile(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	byName := map[string]suiteWorkload{}
	for _, sw := range b.Workloads {
		byName[sw.Name] = sw
	}
	counts := map[string]int{}
	bad := false
	fmt.Fprintf(w, "| workload | metric | unit | a median [min..max] | b median [min..max] | change | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		shareA := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		shareB := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		v := verdictWithin
		if shareB > shareA {
			v, bad = verdictWorse, true
		}
		counts[v]++
		fmt.Fprintf(w, "| %s | failed_share | ratio | %.6f (%d ops) | %.6f (%d ops) | | any increase | %s |\n",
			wa.Name, shareA, wa.Attempted, shareB, wb.Attempted, v)
		for _, m := range spec.EndToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ma == nil || mb == nil {
				continue
			}
			v, worsening := judge(m, ma, mb)
			counts[v]++
			if v == verdictWorse {
				bad = true
			}
			change := fmt.Sprintf("%.2f%% worse", 100*worsening)
			if worsening < 0 {
				change = fmt.Sprintf("%.2f%% better", -100*worsening)
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.4f [%.4f..%.4f] | %.4f [%.4f..%.4f] | %s | %.1f%% | %s |\n",
				wa.Name, m.Name, m.Unit, ma.Median, ma.Min, ma.Max, mb.Median, mb.Min, mb.Max, change, 100*m.Bound, v)
		}
	}
	fmt.Fprintf(w, "\n%d better, %d within-bound, %d worse, %d unresolved\n",
		counts[verdictBetter], counts[verdictWithin], counts[verdictWorse], counts[verdictUnresolved])
	if bad {
		return 1
	}
	return 0
}
