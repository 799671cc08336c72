package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// suiteConfig is a run of several workloads, each repeated in fresh child
// processes so peak memory and caches are independent.
type suiteConfig struct {
	names   string // comma-separated subset; "" is every workload
	seed    int64
	seconds float64
	trace   bool
	reps    int
	out     string
}

// suiteFile is the -out format, and what -compare reads.
type suiteFile struct {
	Env       environment     `json:"env"`
	Seed      int64           `json:"seed"`
	Reps      int             `json:"reps"`
	Seconds   float64         `json:"seconds"`
	Workloads []suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Name      string                  `json:"name"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]*suiteMetric `json:"end_to_end"`
	PerLayer  map[string]metricValue  `json:"per_layer,omitempty"`
}

// suiteMetric keeps every rep's raw value beside the median.
type suiteMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

// environment records what the numbers were measured on.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	TempDir    string  `json:"temp_dir"`
	TempFS     string  `json:"temp_fs"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
}

func captureEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		TempDir:    os.TempDir(),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/mounts"); err == nil {
		// The mount with the longest prefix of the temp dir holds it.
		dir, _ := filepath.Abs(env.TempDir)
		best := -1
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			if mp := f[1]; (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
				best, env.TempFS = len(mp), f[2]
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return env
}

// runChild runs one workload in a fresh process and returns its report and
// whatever it printed before the report line.
func runChild(name string, cfg suiteConfig, trace bool) (*report, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", t)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	i := strings.LastIndex(text, "\n")
	var rep report
	if err := json.Unmarshal([]byte(text[i+1:]), &rep); err != nil {
		if runErr != nil {
			return nil, "", fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, "", fmt.Errorf("%s: no report line: %w", name, err)
	}
	// A child that reported failed operations exits non-zero; its report
	// still counts, as failures.
	return &rep, text[:i+1], nil
}

func runSuite(cfg suiteConfig) int {
	var picked []workload
	if cfg.names == "" {
		picked = workloads
	}
	for _, n := range strings.Split(cfg.names, ",") {
		if n == "" {
			continue
		}
		w, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			return 2
		}
		picked = append(picked, w)
	}
	if cfg.reps < 1 {
		cfg.reps = 1
	}
	file := suiteFile{Env: captureEnvironment(), Seed: cfg.seed, Reps: cfg.reps, Seconds: cfg.seconds}
	if file.Env.LoadAvg1 > 1.0 {
		fmt.Fprintf(os.Stderr, "bench: warning: load average is %.2f; timings will be noisy\n", file.Env.LoadAvg1)
	}
	fmt.Printf("env: %s, %d CPUs (GOMAXPROCS %d), %s, temp dir on %s, seed %d, %d reps of %gs\n",
		file.Env.GoVersion, file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.CPUModel, file.Env.TempFS, cfg.seed, cfg.reps, cfg.seconds)
	failed := false
	for _, w := range picked {
		sw := suiteWorkload{Name: w.name, EndToEnd: map[string]*suiteMetric{}}
		for r := 0; r < cfg.reps; r++ {
			rep, _, err := runChild(w.name, cfg, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			sw.Attempted += rep.Attempted
			sw.Failed += rep.Failed
			for name, v := range rep.Metrics {
				m := sw.EndToEnd[name]
				if m == nil {
					m = &suiteMetric{Unit: v.Unit}
					sw.EndToEnd[name] = m
				}
				m.Values = append(m.Values, v.Value)
			}
		}
		fmt.Printf("\n%s: %d operations attempted, %d failed (failed share %.4f)\n",
			w.name, sw.Attempted, sw.Failed, float64(sw.Failed)/float64(sw.Attempted))
		for _, d := range endToEnd {
			m := sw.EndToEnd[d.name]
			m.Median = median(m.Values)
			m.Min, m.Max = percentile(m.Values, 0), percentile(m.Values, 100)
			fmt.Printf("  %-22s %14.4f %-5s  [%.4f .. %.4f] over %d reps\n", d.name, m.Median, m.Unit, m.Min, m.Max, len(m.Values))
		}
		if cfg.trace {
			rep, text, err := runChild(w.name, cfg, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			sw.Failed += rep.Failed
			sw.PerLayer = rep.Metrics
			fmt.Print(text)
			for _, d := range perLayer {
				fmt.Printf("  %-34s %14.4f %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
			}
			base := sw.EndToEnd["throughput_per_s"]
			traced := rep.Metrics["trace.throughput_per_s"].Value
			inside := traced >= base.Min && traced <= base.Max
			fmt.Printf("  trace.overhead_pct %.2f%% of throughput_per_s (traced run inside the untraced reps' range: %v)\n",
				100*(base.Median-traced)/base.Median, inside)
		}
		if sw.Failed > 0 {
			failed = true
		}
		file.Workloads = append(file.Workloads, sw)
	}
	if err := writeSuiteFile(cfg.out, &file); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\nresults written to %s\n", cfg.out)
	if failed {
		return 1
	}
	return 0
}

func writeSuiteFile(path string, f *suiteFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSuiteFile(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
