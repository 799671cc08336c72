package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFixture runs the lint over testdata/fixture, a module built to hit
// each rule once, and checks the exact set of problems it reports.
func TestFixture(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	r, err := lint(root, filepath.Join(root, "allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		// Rule 1. Only a _test.go file calls it, in its own package and in
		// another, and a test-support package, whose calls do not count.
		"a/a.go:7: a.OnlyTested is exported but",
		// Only bench/, a module of its own, calls it.
		"a/a.go:10: a.OnlyBench is exported but",
		// Only its own package calls it.
		"a/a.go:28: a.Widget.Spin is exported but",
		// Rule 2. A function only a test calls, one only bench/ calls, and an
		// unexported one nothing calls: cmd/dsn-audit links none of them.
		"a/a.go:7: a.OnlyTested is declared in a library package but cmd/dsn-audit does not link it",
		"a/a.go:10: a.OnlyBench is declared in a library package but cmd/dsn-audit does not link it",
		"a/a.go:60: a.unlinked is declared in a library package but cmd/dsn-audit does not link it",
		// Rule 3. Non-test code of a library imports a test-support package.
		"c imports a/atest, a test-support package",
		// The shrink-only rule: an entry that gained a caller and that the
		// binary now links, and one whose name is gone.
		"a.Parked is allowlisted but now has a caller and cmd/dsn-audit now links it",
		"allowlisted a.Gone is not declared any more",
	}
	var got []string
	for _, p := range r.problems {
		got = append(got, filepath.ToSlash(p))
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("problems:\n%s\nwant one per:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("problem %q, want %q...", got[i], want[i])
		}
	}
	// Everything else passes. Rule 1: a.Part (reached only through
	// Widget's field), NotFoundError's Error, Unwrap and Is (reached only
	// through the error interface and errors.Is), a.Reserved (allowlisted,
	// still uncalled), package main's Helper (main packages are not
	// linted) and atest.Build (test-support packages are not either).
	// Rule 2: Widget.Spin (linked through NewWidget), Square.Area (reached
	// only through the interface call in Total), Counter's closure, the
	// generic Largest and Stack.Push (linked only as instances), a.Pending
	// (allowlisted; cmd/tool calls it, cmd/dsn-audit does not) and
	// atest.Build. Rule 3: cmd/experiments imports a/atest.
	if r.packages != 3 || r.allowlisted != 4 {
		t.Errorf("linted %d packages with %d allowlisted, want 3 (a, a/atest, c) and 4", r.packages, r.allowlisted)
	}
	if r.funcs != r.linked+5 {
		t.Errorf("%d library functions, %d linked: want all but OnlyTested, OnlyBench, unlinked, Pending and Reserved", r.funcs, r.linked)
	}
}

// TestLinkedName pins how a text symbol of the binary maps to the
// declarations it may stand for: closures, defer and go wrappers, method
// values and generic instances all read as the function that declares them.
func TestLinkedName(t *testing.T) {
	for _, tc := range []struct {
		sym  string
		want []string
	}{
		{"repro/internal/core.Setup", []string{"internal/core.Setup"}},
		{"repro/internal/core.Setup.func1.2", []string{"internal/core.Setup", "internal/core.Setup.func1"}},
		{"repro/dsnaudit.(*Network).AddProvider.deferwrap1", []string{"dsnaudit.Network", "dsnaudit.Network.AddProvider"}},
		{"repro/dsnaudit/remote.newClientConn.gowrap1", []string{"dsnaudit/remote.newClientConn", "dsnaudit/remote.newClientConn.gowrap1"}},
		{"repro/internal/bn256.GT.Marshal-fm", []string{"internal/bn256.GT", "internal/bn256.GT.Marshal"}},
		{"repro/dsnaudit/sched.(*wakeQueue[go.shape.*uint8]).PopDue", []string{"dsnaudit/sched.wakeQueue", "dsnaudit/sched.wakeQueue.PopDue"}},
		{"repro/internal/bn256.grow[go.shape.struct { repro/internal/bn256.x repro/internal/bn256.gfP }]", []string{"internal/bn256.grow"}},
		{"reprox/a.F", nil},
		{"runtime.main", nil},
	} {
		got := linkedName(tc.sym, "repro")
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("linkedName(%q) = %q, want %q", tc.sym, got, tc.want)
		}
	}
}

// TestAllowlistFormat pins the allowlist's two structural errors.
func TestAllowlistFormat(t *testing.T) {
	for _, tc := range []struct{ name, text, want string }{
		{"outside a section", "a.X\n", "not under an [item] section"},
		{"listed twice", "[item]\na.X\na.X # again\n", "listed twice"},
	} {
		path := filepath.Join(t.TempDir(), "allowlist.txt")
		if err := os.WriteFile(path, []byte(tc.text), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readAllowlist(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestModule runs the lint over this module with its allowlist, the check
// CI runs as a step of its own.
func TestModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports")
	}
	root := filepath.Join("..", "..")
	r, err := lint(root, filepath.Join(root, "scripts", "exportlint", "allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.problems {
		t.Error(p)
	}
}
