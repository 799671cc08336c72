package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
)

// detReader yields SHA-256(seed || counter) blocks: deterministic entropy
// so spilled-and-rehydrated provers can be compared proof-byte for
// proof-byte against never-spilled ones.
type detReader struct {
	mu   sync.Mutex
	seed string
	ctr  uint64
	buf  []byte
}

func newDetReader(seed string) *detReader { return &detReader{seed: seed} }

func (r *detReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.buf) < len(p) {
		var blk [8]byte
		binary.BigEndian.PutUint64(blk[:], r.ctr)
		r.ctr++
		h := sha256.Sum256(append([]byte(r.seed), blk[:]...))
		r.buf = append(r.buf, h[:]...)
	}
	copy(p, r.buf[:len(p)])
	r.buf = r.buf[len(p):]
	return len(p), nil
}

// spillFixture builds one audit state: key, encoded file, authenticators.
func spillFixture(t testing.TB, seed string, size int) (*core.PrivateKey, *core.EncodedFile, []*core.Authenticator) {
	t.Helper()
	sk, err := core.KeyGen(2, newDetReader(seed+"-key"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + len(seed))
	}
	ef, err := core.EncodeFile(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := core.Setup(sk, ef)
	if err != nil {
		t.Fatal(err)
	}
	return sk, ef, auths
}

func newProverOrDie(t testing.TB, pk *core.PublicKey, ef *core.EncodedFile, auths []*core.Authenticator) *core.Prover {
	t.Helper()
	p, err := core.NewProver(pk, ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSpillStoreLRUAndRehydrate pins the paging contract: the resident set
// never exceeds the window, spilled provers come back, and a rehydrated
// prover produces byte-identical proofs to one that never left memory. One
// shard makes the LRU order exact.
func TestSpillStoreLRUAndRehydrate(t *testing.T) {
	sk, ef, auths := spillFixture(t, "lru", 600)
	dir := t.TempDir()
	store, err := newSpillStore(dir, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []chain.Address{"audit:a", "audit:b", "audit:c", "audit:d"}
	for _, a := range addrs {
		if err := store.PutProver(a, newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths))); err != nil {
			t.Fatal(err)
		}
	}
	st := store.Stats()
	if st.Resident != 2 {
		t.Fatalf("resident = %d, want window 2", st.Resident)
	}
	if st.Spills != 4 {
		t.Fatalf("spills = %d, want one per put (4)", st.Spills)
	}
	if st.ResidentPeak > 3 {
		t.Fatalf("resident peak %d exceeds window+1", st.ResidentPeak)
	}

	// The least-recently-used entries (a, b) were evicted; getting one back
	// must rehydrate, evicting another to keep the window.
	ch, err := core.NewChallenge(4, newDetReader("lru-chal"))
	if err != nil {
		t.Fatal(err)
	}
	refBytes := proofBytes(t, newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths)), ch)
	for _, a := range addrs {
		p, ok, err := store.GetProver(a)
		if err != nil || !ok {
			t.Fatalf("GetProver(%s) = ok=%v, err=%v", a, ok, err)
		}
		if !bytes.Equal(proofBytes(t, p, ch), refBytes) {
			t.Fatalf("prover %s diverged after spill round trip", a)
		}
	}
	if st := store.Stats(); st.Hydrates < 2 {
		t.Fatalf("hydrates = %d, want >= 2", st.Hydrates)
	}

	// Delete must reclaim both resident entries and spill files.
	for _, a := range addrs {
		if err := store.DeleteProver(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := store.GetProver(addrs[0]); ok || err != nil {
		t.Fatalf("deleted prover still answers: ok=%v err=%v", ok, err)
	}
	if left := segmentFiles(t, dir); len(left) != 0 {
		t.Fatalf("%d spill files left after deleting everything", len(left))
	}
}

// segmentFiles lists the store's segment files, sorted.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*", "*.state"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// proofBytes proves ch with fixed entropy, so equal audit state yields equal
// bytes.
func proofBytes(t *testing.T, p *core.Prover, ch *core.Challenge) []byte {
	t.Helper()
	proof, err := p.ProvePrivate(ch, nil, newDetReader("proof-entropy"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := proof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSpillStoreWriteOnce pins the write-once contract: a record is written
// when its prover is put and never again, however often the prover is evicted
// and decoded back, and what comes back proves like state that never left
// memory.
func TestSpillStoreWriteOnce(t *testing.T) {
	sk, ef, auths := spillFixture(t, "once", 600)
	dir := t.TempDir()
	store, err := NewSpillStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 12
	addr := func(i int) chain.Address { return chain.Address(fmt.Sprintf("audit:once-%d", i)) }
	for i := 0; i < keys; i++ {
		if err := store.PutProver(addr(i), newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths))); err != nil {
			t.Fatal(err)
		}
	}
	if st := store.Stats(); st.Spills != keys {
		t.Fatalf("spills = %d after %d puts, want one each", st.Spills, keys)
	}
	snapshot := func() map[string][]byte {
		files := make(map[string][]byte)
		for _, path := range segmentFiles(t, dir) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files[path] = data
		}
		return files
	}
	before := snapshot()
	ch, err := core.NewChallenge(4, newDetReader("once-chal"))
	if err != nil {
		t.Fatal(err)
	}
	refBytes := proofBytes(t, newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths)), ch)
	for sweep := 0; sweep < 3; sweep++ {
		for i := 0; i < keys; i++ {
			p, ok, err := store.GetProver(addr(i))
			if err != nil || !ok {
				t.Fatalf("sweep %d: GetProver(%s): ok=%v err=%v", sweep, addr(i), ok, err)
			}
			if !bytes.Equal(proofBytes(t, p, ch), refBytes) {
				t.Fatalf("sweep %d: prover %s diverged from the never-spilled reference", sweep, addr(i))
			}
		}
		after := snapshot()
		if len(after) != len(before) {
			t.Fatalf("sweep %d: %d segment files, %d before it", sweep, len(after), len(before))
		}
		for path, data := range before {
			if !bytes.Equal(after[path], data) {
				t.Fatalf("sweep %d rewrote %s", sweep, path)
			}
		}
	}
	st := store.Stats()
	if st.Spills != keys {
		t.Fatalf("spills = %d after three sweeps, want still %d", st.Spills, keys)
	}
	if st.Hydrates < 30 {
		t.Fatalf("hydrates = %d over 36 gets through a window of 2, want >= 30", st.Hydrates)
	}
}

// TestSpillStoreReplace pins replacement: a second PutProver on one address
// serves the second state and releases the first one's record.
func TestSpillStoreReplace(t *testing.T) {
	sk1, ef1, auths1 := spillFixture(t, "replace-1", 400)
	sk2, ef2, auths2 := spillFixture(t, "replace-2", 400)
	dir := t.TempDir()
	store, err := newSpillStore(dir, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	store.segBytes = 1 // every record gets a segment of its own
	if err := store.PutProver("audit:r", newProverOrDie(t, sk1.Pub, ef1, auths1)); err != nil {
		t.Fatal(err)
	}
	first := segmentFiles(t, dir)
	if err := store.PutProver("audit:r", newProverOrDie(t, sk2.Pub, ef2.Clone(), core.CloneAuthenticators(auths2))); err != nil {
		t.Fatal(err)
	}
	files := segmentFiles(t, dir)
	if len(first) != 1 || len(files) != 1 || files[0] == first[0] {
		t.Fatalf("segments %v -> %v, want the first record's file replaced by the second's", first, files)
	}
	if st := store.Stats(); st.Spills != 2 || st.Segments != 1 || st.Resident != 1 {
		t.Fatalf("stats after a replacement = %+v, want 2 spills, 1 segment, 1 resident", st)
	}
	// Push the replacement out of the window so the answer comes from disk.
	if err := store.PutProver("audit:other", newProverOrDie(t, sk1.Pub, ef1.Clone(), core.CloneAuthenticators(auths1))); err != nil {
		t.Fatal(err)
	}
	p, ok, err := store.GetProver("audit:r")
	if err != nil || !ok {
		t.Fatalf("GetProver after replacement: ok=%v err=%v", ok, err)
	}
	ch, err := core.NewChallenge(3, newDetReader("replace-chal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(proofBytes(t, p, ch), proofBytes(t, newProverOrDie(t, sk2.Pub, ef2, auths2), ch)) {
		t.Fatal("replaced address does not serve the second state")
	}
}

// TestSpillStoreSegmentRollover pins the segment life cycle: appends share a
// file up to the roll size, every record stays readable across files, a file
// goes when its last record is deleted, and deleting everything leaves no
// segment behind.
func TestSpillStoreSegmentRollover(t *testing.T) {
	sk, ef, auths := spillFixture(t, "roll", 400)
	record, err := core.MarshalAuditState(ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := newSpillStore(dir, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	store.segBytes = 2 * int64(len(record)) // two records to a segment
	addrs := []chain.Address{"audit:0", "audit:1", "audit:2", "audit:3", "audit:4"}
	for _, a := range addrs {
		if err := store.PutProver(a, newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths))); err != nil {
			t.Fatal(err)
		}
	}
	files := segmentFiles(t, dir)
	if len(files) != 3 || store.Stats().Segments != 3 {
		t.Fatalf("5 records at 2 to a segment: files %v, gauge %d, want 3", files, store.Stats().Segments)
	}
	for i, want := range []int{2, 2, 1} {
		if fi, err := os.Stat(files[i]); err != nil || fi.Size() != int64(want*len(record)) {
			t.Fatalf("segment %d: %v, err=%v, want %d records", i, fi, err, want)
		}
	}
	for _, a := range addrs {
		if _, ok, err := store.GetProver(a); !ok || err != nil {
			t.Fatalf("GetProver(%s): ok=%v err=%v", a, ok, err)
		}
	}
	// The first segment holds records 0 and 1 and goes with the second of them.
	for i, want := range []int{3, 2} {
		if err := store.DeleteProver(addrs[i]); err != nil {
			t.Fatal(err)
		}
		if left := segmentFiles(t, dir); len(left) != want {
			t.Fatalf("after deleting %s: %d segment files, want %d", addrs[i], len(left), want)
		}
	}
	// A put after the open segment's only record is gone starts a new file.
	if err := store.DeleteProver(addrs[4]); err != nil {
		t.Fatal(err)
	}
	if err := store.PutProver(addrs[4], newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths))); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.GetProver(addrs[4]); !ok || err != nil {
		t.Fatalf("GetProver after re-put: ok=%v err=%v", ok, err)
	}
	for _, a := range addrs {
		if err := store.DeleteProver(a); err != nil {
			t.Fatal(err)
		}
	}
	if left := segmentFiles(t, dir); len(left) != 0 || store.Stats().Segments != 0 {
		t.Fatalf("after deleting everything: files %v, gauge %d", left, store.Stats().Segments)
	}
}

// TestSpillStoreClearsStaleSegments pins that the store owns its directory:
// segments a previous process left are removed at open (their index died with
// it), so a new segment never shares a file with stale bytes; other files are
// not the store's and stay.
func TestSpillStoreClearsStaleSegments(t *testing.T) {
	sk, ef, auths := spillFixture(t, "stale", 400)
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shard-00")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(shardDir, "seg-00000001.state")
	bystander := filepath.Join(shardDir, "notes.txt")
	for _, path := range []string{stale, bystander} {
		if err := os.WriteFile(path, bytes.Repeat([]byte("junk"), 4096), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := newSpillStore(dir, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if left := segmentFiles(t, dir); len(left) != 0 {
		t.Fatalf("stale segments survived open: %v", left)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("open removed a file that is not a segment: %v", err)
	}
	if err := store.PutProver("audit:s", newProverOrDie(t, sk.Pub, ef, auths)); err != nil {
		t.Fatal(err)
	}
	record, err := core.MarshalAuditState(ef, auths)
	if err != nil {
		t.Fatal(err)
	}
	// The name counter restarts at 1, so the new segment takes the stale
	// file's name: it must hold the record and nothing else.
	got, err := os.ReadFile(stale)
	if err != nil || !bytes.Equal(got, record) {
		t.Fatalf("first segment after open: %d bytes, err=%v, want exactly the %d-byte record", len(got), err, len(record))
	}
}

// TestSpillStoreSharded pins the sharded layout: records land in per-shard
// subdirectories, and the store behaves identically through the sharded
// fast path.
func TestSpillStoreSharded(t *testing.T) {
	sk, ef, auths := spillFixture(t, "sharded", 600)
	dir := t.TempDir()
	store, err := newSpillStore(dir, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 12
	for i := 0; i < keys; i++ {
		addr := chain.Address(fmt.Sprintf("audit:shard-%d", i))
		if err := store.PutProver(addr, newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths))); err != nil {
			t.Fatal(err)
		}
	}
	st := store.Stats()
	if st.Resident > 4 {
		t.Fatalf("resident = %d, want <= total window 4", st.Resident)
	}
	if st.Spills != keys {
		t.Fatalf("spills = %d, want one per put (%d)", st.Spills, keys)
	}
	shardDirs, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil || len(shardDirs) != 4 {
		t.Fatalf("shard dirs = %v, err=%v, want 4", shardDirs, err)
	}
	populated := 0
	for _, sd := range shardDirs {
		files, _ := filepath.Glob(filepath.Join(sd, "*.state"))
		if len(files) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("spill files concentrated in %d shard dir(s), want spread", populated)
	}
	for i := 0; i < keys; i++ {
		addr := chain.Address(fmt.Sprintf("audit:shard-%d", i))
		if _, ok, err := store.GetProver(addr); !ok || err != nil {
			t.Fatalf("GetProver(%s): ok=%v err=%v", addr, ok, err)
		}
	}
}

// TestSpillStoreCorruptionSurfaces pins that a tampered spill record is an
// error — the audit state existed and cannot be reproduced — never a silent
// "not found" and never a panic.
func TestSpillStoreCorruptionSurfaces(t *testing.T) {
	sk, ef, auths := spillFixture(t, "corrupt", 400)
	dir := t.TempDir()
	store, err := newSpillStore(dir, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutProver("audit:x", newProverOrDie(t, sk.Pub, ef, auths)); err != nil {
		t.Fatal(err)
	}
	// A second put evicts the first from the window; one segment holds both
	// records, x's first.
	sk2, ef2, auths2 := spillFixture(t, "corrupt-2", 400)
	if err := store.PutProver("audit:y", newProverOrDie(t, sk2.Pub, ef2, auths2)); err != nil {
		t.Fatal(err)
	}
	files := segmentFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("spill files = %v, want exactly 1", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/4] ^= 0x40
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := store.GetProver("audit:x")
	if err == nil {
		t.Fatalf("corrupted record returned ok=%v with no error", ok)
	}
	// The damage is x's alone: once a third put has pushed y out of the
	// window, y's record in the same file still decodes.
	if err := store.PutProver("audit:z", newProverOrDie(t, sk2.Pub, ef2.Clone(), core.CloneAuthenticators(auths2))); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.GetProver("audit:y"); !ok || err != nil {
		t.Fatalf("intact neighbour record: ok=%v err=%v", ok, err)
	}
}

// TestSpillStoreConcurrent hammers one store from many goroutines under
// -race: concurrent gets force constant evict/rehydrate churn through a
// window much smaller than the key set, and every prover that comes back
// must still prove correctly.
func TestSpillStoreConcurrent(t *testing.T) {
	sk, ef, auths := spillFixture(t, "conc", 400)
	store, err := NewSpillStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	for i := 0; i < keys; i++ {
		addr := chain.Address(fmt.Sprintf("audit:conc-%d", i))
		if err := store.PutProver(addr, newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths))); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := core.NewChallenge(3, newDetReader("conc-chal"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				addr := chain.Address(fmt.Sprintf("audit:conc-%d", (g+i)%keys))
				p, ok, err := store.GetProver(addr)
				if err != nil || !ok {
					errs <- fmt.Errorf("get %s: ok=%v err=%v", addr, ok, err)
					return
				}
				proof, err := p.ProvePrivate(ch, nil, newDetReader(fmt.Sprintf("e-%d-%d", g, i)))
				if err != nil {
					errs <- err
					return
				}
				if !core.VerifyPrivate(sk.Pub, ef.NumChunks(), ch, proof) {
					errs <- fmt.Errorf("proof from %s failed verification", addr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
