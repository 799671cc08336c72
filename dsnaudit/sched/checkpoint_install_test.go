package sched

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestInstallFile: the checkpoint's install step replaces the old file with
// exactly the new bytes — a longer tmp left by an earlier crash does not leak
// its tail into it — leaves no tmp behind, and reports a directory it cannot
// write to. (That both the file and the directory are synced is not something
// a test without a power switch can observe.)
func TestInstallFile(t *testing.T) {
	dir := t.TempDir()
	path, tmp := filepath.Join(dir, checkpointName), filepath.Join(dir, checkpointTmpName)
	if err := os.WriteFile(path, []byte("the previous checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, bytes.Repeat([]byte("torn"), 64), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []byte("the next one")
	if err := installFile(tmp, path, want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("installed file reads %q (err %v), want %q", got, err, want)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp still there after the install: %v", err)
	}

	gone := filepath.Join(dir, "no-such-dir")
	if err := installFile(filepath.Join(gone, checkpointTmpName), filepath.Join(gone, checkpointName), want); err == nil {
		t.Fatal("install into a missing directory reported success")
	}
}
