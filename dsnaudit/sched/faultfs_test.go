package sched

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// faultFS is fsys over os that records every effect — each call that changes
// what is on disk, and each sync — and can fail the journal at one of them.
// A kill fails the chosen effect and every later call, as a process that
// died there would make no more; a written byte counts as durable, so this
// models a process kill, not power loss.
type faultFS struct {
	root string // effects name files relative to it

	// dies picks the effect that fails: i is its index, p a write's bytes.
	// nil never fails.
	dies func(i int, e effect, p []byte) bool
	// torn makes a failing write first write all of its bytes but the last:
	// a cut inside its final record.
	torn bool
	// once fails only the chosen effect and lets later calls through, like
	// a transient ENOSPC, instead of killing.
	once bool

	mu      sync.Mutex
	effects []effect
	dead    bool
}

// effect is one recorded file-system effect. Two runs that record the same
// list can replay each other's cells.
type effect struct {
	op   string // mkdir, create, write, sync, truncate, rename, remove
	file string // relative to the journal directory
	n    int    // bytes, for a write
}

var errInjected = errors.New("faultfs: injected failure")

// kill fails every later call, for a kill at a chain seam, between effects.
func (f *faultFS) kill() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
}

func (f *faultFS) killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

func (f *faultFS) recorded() []effect {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]effect(nil), f.effects...)
}

// step admits one call: e is its effect, nil for a call that changes
// nothing. A non-nil error means the call fails; torn means a failing write
// writes its torn prefix first.
func (f *faultFS) step(e *effect, p []byte) (torn bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return false, errInjected
	}
	if e == nil {
		return false, nil
	}
	i := len(f.effects)
	f.effects = append(f.effects, *e)
	if f.dies == nil || !f.dies(i, *e, p) {
		return false, nil
	}
	f.dead = !f.once
	return f.torn && e.op == "write", errInjected
}

func (f *faultFS) rel(name string) string {
	if r, err := filepath.Rel(f.root, name); err == nil {
		return r
	}
	return name
}

func (f *faultFS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.step(&effect{op: "mkdir", file: f.rel(path)}, nil); err != nil {
		return err
	}
	return os.MkdirAll(path, perm)
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (fsFile, error) {
	var e *effect
	if flag&(os.O_CREATE|os.O_TRUNC) != 0 {
		e = &effect{op: "create", file: f.rel(name)}
	}
	if _, err := f.step(e, nil); err != nil {
		return nil, err
	}
	file, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: f.rel(name)}, nil
}

func (f *faultFS) Truncate(name string, size int64) error {
	if _, err := f.step(&effect{op: "truncate", file: f.rel(name)}, nil); err != nil {
		return err
	}
	return os.Truncate(name, size)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if _, err := f.step(&effect{op: "rename", file: f.rel(newpath)}, nil); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if _, err := f.step(&effect{op: "remove", file: f.rel(name)}, nil); err != nil {
		return err
	}
	return os.Remove(name)
}

type faultFile struct {
	fs   *faultFS
	f    *os.File
	name string
}

func (w *faultFile) Write(p []byte) (int, error) {
	torn, err := w.fs.step(&effect{op: "write", file: w.name, n: len(p)}, p)
	if torn && len(p) > 1 {
		n, _ := w.f.Write(p[:len(p)-1])
		return n, err
	}
	if err != nil {
		return 0, err
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	if _, err := w.fs.step(&effect{op: "sync", file: w.name}, nil); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close always releases the descriptor; after a kill it still fails.
func (w *faultFile) Close() error {
	_, err := w.fs.step(nil, nil)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// TestJournalFailedWriteLeavesTornTail: a coalesced write that fails after
// a torn prefix — a full disk, not a crash: later calls would succeed — is
// the journal's last write. The barrier, a later append and Close return
// the failure without writing the buffer again behind the torn bytes, so the
// directory reopens with the cut record counted as a torn tail and every
// record before it intact.
func TestJournalFailedWriteLeavesTornTail(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultFS{root: dir, torn: true, once: true}
	j, err := openJournal(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	const addr = "audit:a:sp:f"
	must := func(r journalRecord) {
		t.Helper()
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	must(journalRecord{typ: recRegister, addr: addr, seq: 0})
	must(journalRecord{typ: recTick, height: 1})
	must(journalRecord{typ: recSettled, addr: addr, round: 0, passed: true})
	if err := j.barrier(true); err != nil {
		t.Fatal(err)
	}
	before, _, err := readLogFrom(dir, 0)
	if err != nil || len(before) != 3 {
		t.Fatalf("%d records on disk before the failure (err %v), want 3", len(before), err)
	}

	// The failing write coalesces two records; its torn prefix holds the
	// first whole and the second but for its last byte.
	must(journalRecord{typ: recParked, addr: addr, kind: parkRetry, round: 1, height: 3, retries: 1})
	last := journalRecord{typ: recSettled, addr: addr, round: 1, passed: false}
	must(last)
	next := len(ffs.recorded())
	ffs.dies = func(i int, e effect, _ []byte) bool { return i == next && e.op == "write" }
	latched := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, errInjected) {
			t.Errorf("%s after the failed write returned %v, want the latched failure", what, err)
		}
	}
	latched("barrier", j.barrier(false))
	latched("sync barrier", j.barrier(true))
	latched("later append", j.append(journalRecord{typ: recTick, height: 2}))
	latched("Close", j.Close())

	j2, err := OpenJournal(dir, 1)
	if err != nil {
		t.Fatalf("journal refused after one failed write: %v", err)
	}
	defer j2.Close()
	if got, want := j2.Stats().TornBytes, uint64(len(appendRecord(nil, last))-1); got != want {
		t.Errorf("TornBytes = %d, want the %d bytes of the cut record", got, want)
	}
	after, _, err := readLogFrom(dir, 0)
	if err != nil || len(after) != len(before)+1 {
		t.Fatalf("%d records read back (err %v), want the %d before the cut one", len(after), err, len(before)+1)
	}
}

// TestOpenJournalSyncsDir: a fresh journal's log is an entry of a synced
// directory before any record goes into it, so power loss cannot drop a log
// that holds fsynced registrations — a directory sync follows the log's
// create and precedes the first record write.
func TestOpenJournalSyncsDir(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultFS{root: dir}
	j, err := openJournal(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{typ: recRegister, addr: "audit:a:sp:f"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lastCreate, firstWrite, dirSync := -1, -1, -1
	for i, e := range ffs.recorded() {
		log := e.file == journalLogName
		switch {
		case log && e.op == "create":
			lastCreate = i
		case log && e.op == "write" && firstWrite < 0:
			firstWrite = i
		case e.op == "sync" && e.file == "." && lastCreate >= 0 && firstWrite < 0:
			dirSync = i
		}
	}
	if lastCreate < 0 || firstWrite < 0 || dirSync < lastCreate {
		t.Fatalf("effects %+v: no directory sync between the log's create (%d) and the first record write (%d)",
			ffs.recorded(), lastCreate, firstWrite)
	}
}
