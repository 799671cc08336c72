package main

import (
	"bufio"
	"crypto/rand"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// childEnv, when set, makes the test binary run main() instead of its tests,
// so every scenario below drives the shipped command as real processes
// without a separate build.
const childEnv = "DSN_AUDIT_TEST_CHILD"

// lineTimeout bounds every wait on a child: for a line or for its exit.
const lineTimeout = 2 * time.Minute

// tickDelay holds a durable run open between ticks: long enough for the test
// to act on a progress line before the next tick starts.
const tickDelay = "200ms"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
	}
	os.Exit(m.Run())
}

// proc is one dsn-audit child process. Its stdout and stderr share one pipe;
// every line is kept, and waitFor blocks until one matches.
type proc struct {
	cmd   *exec.Cmd
	mu    sync.Mutex
	lines []string
	more  chan struct{} // a line arrived, or the process exited
	done  chan struct{} // closed once the process has exited
}

// start runs dsn-audit with args; the process is killed when t ends.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = w, w
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, more: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		for sc := bufio.NewScanner(r); sc.Scan(); p.notify() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
		r.Close()
		cmd.Wait()
		close(p.done)
		p.notify()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.done
	})
	return p
}

func (p *proc) notify() {
	select {
	case p.more <- struct{}{}:
	default:
	}
}

// output returns the lines printed so far and whether the process has
// exited, in which case they are all it printed.
func (p *proc) output() ([]string, bool) {
	exited := false
	select {
	case <-p.done:
		exited = true
	default:
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lines, exited
}

// waitFor returns the first line matching re. It fails t if the process
// exits or lineTimeout passes first.
func (p *proc) waitFor(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	timeout := time.After(lineTimeout)
	for i := 0; ; {
		lines, exited := p.output()
		for ; i < len(lines); i++ {
			if rx.MatchString(lines[i]) {
				return lines[i]
			}
		}
		if exited {
			t.Fatalf("%v exited without printing %q:\n%s", p.cmd.Args[1:], re, strings.Join(lines, "\n"))
		}
		select {
		case <-p.more:
		case <-timeout:
			t.Fatalf("%v printed no %q in %v:\n%s", p.cmd.Args[1:], re, lineTimeout, strings.Join(lines, "\n"))
		}
	}
}

// wait waits for the process to exit and returns its exit code and output.
func (p *proc) wait(t *testing.T) (int, string) {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(lineTimeout):
		t.Fatalf("%v still running after %v", p.cmd.Args[1:], lineTimeout)
	}
	lines, _ := p.output()
	return p.cmd.ProcessState.ExitCode(), strings.Join(lines, "\n") + "\n"
}

// run runs dsn-audit to its exit and fails t unless the exit code is want.
func run(t *testing.T, want int, args ...string) string {
	t.Helper()
	code, out := start(t, args...).wait(t)
	if code != want {
		t.Fatalf("dsn-audit %s: exit %d, want %d\n%s", strings.Join(args, " "), code, want, out)
	}
	return out
}

// field returns a LISTEN or METRICS line's address.
func field(line string) string { return strings.Fields(line)[1] }

// wantCount fails t unless sub occurs n times in out.
func wantCount(t *testing.T, out, sub string, n int) {
	t.Helper()
	if got := strings.Count(out, sub); got != n {
		t.Errorf("%d lines with %q, want %d:\n%s", got, sub, n, out)
	}
}

// scrape fetches a process's /metrics page.
func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: %s %v", addr, resp.Status, err)
	}
	return string(body)
}

// sample returns the value of one series (its name with labels) in a scrape.
func sample(t *testing.T, page, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no series %s in the scrape:\n%s", series, page)
	return 0
}

// TestRemoteAudit audits three `serve` processes over TCP: a clean audit
// exits 0 with every engagement expired; with one provider killed mid-run
// the audit still finishes, slashes that provider and exits 1.
func TestRemoteAudit(t *testing.T) {
	t.Parallel()
	var servers []*proc
	var addrs []string
	for _, name := range []string{"sp-a", "sp-b", "sp-c"} {
		args := []string{"serve", "-addr", "127.0.0.1:0", "-name", name}
		if name == "sp-a" {
			args = append(args, "-metrics", "127.0.0.1:0")
		}
		p := start(t, args...)
		servers = append(servers, p)
		addrs = append(addrs, field(p.waitFor(t, `^LISTEN `)))
	}
	remotes := strings.Join(addrs, ",")

	t.Run("clean", func(t *testing.T) {
		out := run(t, 0, "-remote", remotes, "-rounds", "2", "-seed", "smoke-clean", "-call-timeout", "30s")
		wantCount(t, out, "state=EXPIRED", 3)
		wantCount(t, out, "audit passed", 1)
	})

	t.Run("provider-killed", func(t *testing.T) {
		if testing.Short() {
			t.Skip("kills a provider mid-audit; runs without -short")
		}
		payload := make([]byte, 1<<20)
		rand.Read(payload)
		file := filepath.Join(t.TempDir(), "payload.bin")
		if err := os.WriteFile(file, payload, 0o600); err != nil {
			t.Fatal(err)
		}
		audit := start(t, "-remote", remotes, "-file", file, "-rounds", "40",
			"-seed", "smoke-kill", "-call-timeout", "15s", "-retries", "1")
		// A round settles in well under a second and every prover speed-up
		// shortens it, so the kill is timed in rounds: it goes out at the
		// first progress line, and must land before half of them settled.
		audit.waitFor(t, `^progress: `)
		servers[2].cmd.Process.Kill()
		lines, _ := audit.output()
		var settled, total int
		for _, line := range lines {
			fmt.Sscanf(line, "progress: %d/%d", &settled, &total)
		}
		if 2*settled >= total {
			t.Fatalf("sp-c was killed with %d/%d rounds settled, not mid-run", settled, total)
		}

		// sp-a is still serving its engagement: its /metrics counts the
		// challenges it served and carries the driver-side families at zero,
		// so one scrape config covers every process role.
		page := scrape(t, field(servers[0].waitFor(t, `^METRICS `)))
		if !strings.Contains(page, "\n# TYPE dsn_remote_requests_total counter\n") {
			t.Errorf("no dsn_remote_requests_total TYPE line:\n%s", page)
		}
		if n := sample(t, page, `dsn_remote_requests_total{type="Challenge"}`); n <= 0 {
			t.Errorf("mid-audit Challenge count %v, want > 0", n)
		}
		sample(t, page, "dsn_sched_ticks_total")

		code, out := audit.wait(t)
		if code != 1 {
			t.Fatalf("exit %d, want 1 (a failed round)\n%s", code, out)
		}
		wantCount(t, out, "state=EXPIRED", 2)
		wantCount(t, out, "state=ABORTED", 1)
		if !strings.Contains(out, "slashed") {
			t.Errorf("no slashing reported:\n%s", out)
		}
	})

	// A terminated server drains and exits 0, as an interrupted one does.
	t.Run("sigterm", func(t *testing.T) {
		sp := servers[1]
		sp.cmd.Process.Signal(syscall.SIGTERM)
		if code, out := sp.wait(t); code != 0 || !strings.Contains(out, "server drained") {
			t.Errorf("terminated serve: exit %d, want 0 and a drain\n%s", code, out)
		}
	})

	// An interrupted server drains and exits 0.
	sp := servers[0]
	sp.cmd.Process.Signal(os.Interrupt)
	if code, out := sp.wait(t); code != 0 || !strings.Contains(out, "server drained") {
		t.Errorf("interrupted serve: exit %d, want 0 and a drain\n%s", code, out)
	}
}

// stateArgs are the flags of the durable audit every crash scenario runs.
func stateArgs(dir string) []string {
	return []string{"-state", dir, "-seed", "crash-smoke", "-rounds", "6", "-k", "40", "-providers", "12"}
}

// outcome is the part of a run's output a resume must reproduce: the audit
// summary and the balance deltas.
func outcome(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "audit summary") || strings.Contains(line, "balance delta") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// interrupt starts a durable run under state, sends it sig once it reports
// its second settled round, and returns its output.
func interrupt(t *testing.T, state string, sig os.Signal) string {
	t.Helper()
	victim := start(t, append(stateArgs(state), "-tick-delay", tickDelay)...)
	victim.waitFor(t, `^progress: 2 rounds settled`)
	victim.cmd.Process.Signal(sig)
	_, out := victim.wait(t)
	if strings.Contains(out, "audit passed") {
		t.Fatalf("the victim finished before the %v landed:\n%s", sig, out)
	}
	return out
}

// TestCrashResume kills durable `-state` runs mid-audit, with SIGKILL, SIGINT
// and SIGTERM, and requires `resume` to finish each with the summary and
// balance deltas of an uninterrupted run.
func TestCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("kills durable runs mid-audit; runs without -short")
	}
	t.Parallel()
	dir := t.TempDir()
	want := outcome(run(t, 0, stateArgs(filepath.Join(dir, "ref"))...))
	if want == "" {
		t.Fatal("the reference run printed no summary")
	}

	t.Run("sigkill", func(t *testing.T) {
		t.Parallel()
		state := filepath.Join(dir, "kill")
		interrupt(t, state, os.Kill)
		// The resume settles through the instrumented verifier. It re-audits
		// from round 2 or 3, so by its line for round 4 at least one block
		// has finished settling and is on /metrics.
		res := start(t, "resume", "-state", state, "-metrics", "127.0.0.1:0", "-tick-delay", tickDelay)
		metrics := field(res.waitFor(t, `^METRICS `))
		res.waitFor(t, `^progress: 4 rounds settled`)
		if n := sample(t, scrape(t, metrics), "dsn_settle_blocks_total"); n < 1 {
			t.Errorf("resumed run: dsn_settle_blocks_total %v, want >= 1", n)
		}
		code, out := res.wait(t)
		if got := outcome(out); code != 0 || got != want {
			t.Fatalf("resume: exit %d, outcome\n%s\nwant exit 0 and\n%s\n%s", code, got, want, out)
		}
		if got := outcome(run(t, 0, "resume", "-state", state)); got != want {
			t.Errorf("a second resume: outcome\n%s\nwant\n%s", got, want)
		}
	})

	// A clean interrupt or termination flushes the journal's tail: the
	// resume replays every round the victim reported. The signal lands in
	// the tick delay after a progress line, so no verdict is recorded
	// unreported.
	for _, stop := range []struct {
		name string
		sig  os.Signal
	}{{"sigint", os.Interrupt}, {"sigterm", syscall.SIGTERM}} {
		stop := stop
		t.Run(stop.name, func(t *testing.T) {
			t.Parallel()
			state := filepath.Join(dir, stop.name)
			victim := interrupt(t, state, stop.sig)
			if !strings.Contains(victim, "context canceled") {
				t.Fatalf("the victim did not stop on the %v:\n%s", stop.sig, victim)
			}
			reported := strings.Count(victim, "\nprogress: ")
			out := run(t, 0, "resume", "-state", state)
			m := regexp.MustCompile(`(?m)^replayed (\d+) settled round`).FindStringSubmatch(out)
			if m == nil || m[1] != strconv.Itoa(reported) {
				t.Errorf("the victim reported %d settled rounds, the resume replayed %v:\n%s", reported, m, out)
			}
			if got := outcome(out); got != want {
				t.Errorf("outcome\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// chainTotals reads a run's final `chain:` line.
func chainTotals(t *testing.T, out string) (blocks, bytes, gas int) {
	t.Helper()
	m := regexp.MustCompile(`(?m)^chain: (\d+) blocks, (\d+) bytes, (\d+) gas total$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no chain line:\n%s", out)
	}
	blocks, _ = strconv.Atoi(m[1])
	bytes, _ = strconv.Atoi(m[2])
	gas, _ = strconv.Atoi(m[3])
	return blocks, bytes, gas
}

// TestCrashResumeChain: a run SIGKILLed at its second settled round resumes
// on the chain its log replays, heights and gas included, so it ends on the
// uninterrupted run's chain: the same blocks and bytes, and the same gas up
// to the proofs' calldata, whose zero bytes vary from proof to proof.
func TestCrashResumeChain(t *testing.T) {
	if testing.Short() {
		t.Skip("kills a durable run mid-audit; runs without -short")
	}
	t.Parallel()
	dir := t.TempDir()
	wantBlocks, wantBytes, wantGas := chainTotals(t, run(t, 0, stateArgs(filepath.Join(dir, "ref"))...))
	state := filepath.Join(dir, "kill")
	interrupt(t, state, os.Kill)
	out := run(t, 0, "resume", "-state", state)
	blocks, bytes, gas := chainTotals(t, out)
	const gasTolerance = 1_000
	if blocks != wantBlocks || bytes != wantBytes || gas < wantGas-gasTolerance || gas > wantGas+gasTolerance {
		t.Fatalf("resumed chain: %d blocks, %d bytes, %d gas; uninterrupted: %d blocks, %d bytes, %d gas (±%d)\n%s",
			blocks, bytes, gas, wantBlocks, wantBytes, wantGas, gasTolerance, out)
	}
}

// TestCorruptStateExitCodes damages one persisted artifact of a finished
// `-state` run at a time: resume exits 3 when an integrity check fails and 2
// when an input is missing.
func TestCorruptStateExitCodes(t *testing.T) {
	t.Parallel()
	// An XOR flip always changes the byte.
	flip := func(off int) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= 0x40; return b }
	}
	for _, tc := range []struct {
		file   string
		damage func([]byte) []byte // nil deletes the file
		want   int
	}{
		{"journal/journal.log", flip(9), 3},
		{"journal/checkpoint", flip(9), 3},
		{"journal/meta", flip(2), 3},
		{"audit.state", flip(100), 3},
		{"owner.key", func(b []byte) []byte { return b[:10] }, 3},
		{"config.json", flip(0), 3},
		{"enc.key", nil, 2},
		{"chain.log", flip(9), 3},
		// A state dir written before the chain kept its log has none.
		{"chain.log", nil, 2},
	} {
		tc := tc
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			t.Parallel()
			state := filepath.Join(t.TempDir(), "state")
			run(t, 0, stateArgs(state)...)
			path := filepath.Join(state, tc.file)
			if tc.damage == nil {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			} else if b, err := os.ReadFile(path); err != nil {
				t.Fatal(err)
			} else if err := os.WriteFile(path, tc.damage(b), 0o600); err != nil {
				t.Fatal(err)
			}
			run(t, tc.want, "resume", "-state", state)
		})
	}
}
