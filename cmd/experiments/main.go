// Command experiments regenerates every table and figure of the paper's
// evaluation (Section VII) from this reproduction, printing the same rows
// and series the paper reports.
//
// Usage:
//
//	go run ./cmd/experiments -exp all          # everything
//	go run ./cmd/experiments -exp table2       # one experiment
//	go run ./cmd/experiments -exp fig7 -quick  # smaller workloads
//
// Experiments: table1 table2 fig4 fig5 fig6 fig7 fig8 fig9 fig10 beacon
// attack confidence entropy churn soak crash.
//
// Absolute timings depend on this implementation's big.Int-based curve
// arithmetic (the paper used assembly-optimized ECC); EXPERIMENTS.md
// records measured-vs-paper for every row and discusses the deltas. The
// qualitative shapes -- who wins, what grows with what -- are what this
// harness reproduces.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	name string
	desc string
	run  func(ctx *expCtx) error
}

type expCtx struct {
	quick   bool
	workers int // scheduler pipeline parallelism (0 = GOMAXPROCS)
	soakN   int // soak population override; 0 = the experiment's defaults
	out     *os.File
}

func (c *expCtx) printf(format string, args ...any) {
	fmt.Fprintf(c.out, format, args...)
}

var registry = []experiment{
	{"table1", "Qualitative framework comparison", runTable1},
	{"table2", "Strawman SNARK vs main HLA solution", runTable2},
	{"fig4", "One-time on-chain public key size vs s", runFig4},
	{"fig5", "Gas cost vs extrapolated verification time", runFig5},
	{"fig6", "Auditing fees vs contract duration", runFig6},
	{"fig7", "Owner preprocessing time for 1 GB vs s", runFig7},
	{"fig8", "Prover time split (ECC vs Zp), k=300", runFig8},
	{"fig9", "Prove time vs storage-confidence level", runFig9},
	{"fig10", "Blockchain growth and aggregate prove time", runFig10},
	{"beacon", "Randomness cost and last-revealer bias", runBeacon},
	{"attack", "Section V-C on-chain leakage attack", runAttack},
	{"confidence", "Detection confidence: model vs empirical", runConfidence},
	{"entropy", "Merkle challenge-entropy exhaustion (Sec. II)", runEntropy},
	{"churn", "Repair under provider churn: durability and latency", runChurn},
	{"soak", "Sharded scheduler at scale: O(due) ticks, spill-bounded memory", runSoak},
	{"crash", "Crash-injection matrix: kill, recover, verify byte-identical outcomes", runCrash},
}

func main() {
	log.SetFlags(0)
	expName := flag.String("exp", "all", "experiment to run (or 'all' / 'list')")
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	workers := flag.Int("workers", 0, "scheduler pipeline parallelism for churn and soak (0 = GOMAXPROCS)")
	soakN := flag.Int("n", 0, "soak: population override; runs n/2 then n engagements (the nightly gate passes 1000000)")
	flag.Parse()

	ctx := &expCtx{quick: *quick, workers: *workers, soakN: *soakN, out: os.Stdout}

	if *expName == "list" {
		for _, e := range registry {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}

	names := strings.Split(*expName, ",")
	sort.Strings(names)
	runAll := *expName == "all"
	ran := 0
	for _, e := range registry {
		if !runAll && !contains(names, e.name) {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.name, e.desc)
		if err := e.run(ctx); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q (try -exp list)", *expName)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
