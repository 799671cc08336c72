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
		// Only a _test.go file calls it, in its own package and in another.
		"a/a.go:7: a.OnlyTested is exported but",
		// Only bench/, a module of its own, calls it.
		"a/a.go:10: a.OnlyBench is exported but",
		// Only its own package calls it.
		"a/a.go:28: a.Widget.Spin is exported but",
		// The shrink-only rule: an entry that gained a caller, and one whose
		// name is gone.
		"a.Parked is allowlisted but now has a caller",
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
	// Everything else passes: a.Part (reached only through Widget's field),
	// NotFoundError's Error, Unwrap and Is (reached only through the error
	// interface and errors.Is), a.Reserved (allowlisted, still uncalled),
	// and package main's Helper (main packages are not linted).
	if r.packages != 2 || r.allowlisted != 3 {
		t.Errorf("linted %d packages with %d allowlisted, want 2 (a, c) and 3", r.packages, r.allowlisted)
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
