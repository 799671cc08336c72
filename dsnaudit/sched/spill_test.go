package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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
// shard and a batch of one reproduce the original unsharded store's exact
// LRU and write-per-eviction behavior.
func TestSpillStoreLRUAndRehydrate(t *testing.T) {
	sk, ef, auths := spillFixture(t, "lru", 600)
	store, err := newSpillStore(t.TempDir(), 2, 1, 1)
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
	if st.Spills != 2 {
		t.Fatalf("spills = %d, want 2", st.Spills)
	}
	if st.ResidentPeak > 3 {
		t.Fatalf("resident peak %d exceeds window+1", st.ResidentPeak)
	}

	// The least-recently-used entries (a, b) were spilled; getting one back
	// must rehydrate, evicting another to keep the window.
	ch, err := core.NewChallenge(4, newDetReader("lru-chal"))
	if err != nil {
		t.Fatal(err)
	}
	reference, err := newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths)).ProvePrivate(ch, nil, newDetReader("lru-entropy"))
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := reference.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		p, ok, err := store.GetProver(a)
		if err != nil || !ok {
			t.Fatalf("GetProver(%s) = ok=%v, err=%v", a, ok, err)
		}
		proof, err := p.ProvePrivate(ch, nil, newDetReader("lru-entropy"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := proof.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refBytes) {
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
	left, err := filepath.Glob(filepath.Join(storeDir(store), "shard-*", "*.state"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d spill files left after deleting everything", len(left))
	}
}

func storeDir(s *SpillStore) string { return s.dir }

// TestSpillStoreBatchedEviction pins the batched write-out path: evictions
// park in the pending set without touching disk, a Get promotes a pending
// prover back with no disk I/O, and Flush commits what remains.
func TestSpillStoreBatchedEviction(t *testing.T) {
	sk, ef, auths := spillFixture(t, "batch", 600)
	dir := t.TempDir()
	store, err := newSpillStore(dir, 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []chain.Address{"audit:a", "audit:b", "audit:c", "audit:d"}
	for _, a := range addrs {
		if err := store.PutProver(a, newProverOrDie(t, sk.Pub, ef.Clone(), core.CloneAuthenticators(auths))); err != nil {
			t.Fatal(err)
		}
	}
	// Two evictions happened (a, b) but the batch of 4 is not full: nothing
	// on disk yet, nothing counted as spilled.
	if st := store.Stats(); st.Spills != 0 {
		t.Fatalf("spills = %d before the batch fills, want 0", st.Spills)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "shard-*", "*.state")); len(files) != 0 {
		t.Fatalf("%d spill files before the batch fills, want 0", len(files))
	}
	// A pending prover promotes back without a hydrate.
	if _, ok, err := store.GetProver("audit:a"); !ok || err != nil {
		t.Fatalf("pending prover: ok=%v err=%v", ok, err)
	}
	if st := store.Stats(); st.Hydrates != 0 {
		t.Fatalf("hydrates = %d for a pending promote, want 0", st.Hydrates)
	}
	// Flush writes out whatever is pending; everything is then recoverable.
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Spills == 0 {
		t.Fatalf("spills = 0 after Flush, want > 0")
	}
	for _, a := range addrs {
		if _, ok, err := store.GetProver(a); !ok || err != nil {
			t.Fatalf("GetProver(%s) after flush: ok=%v err=%v", a, ok, err)
		}
	}
}

// TestSpillStoreSharded pins the sharded layout: records land in per-shard
// subdirectories, and the store behaves identically through the sharded
// fast path.
func TestSpillStoreSharded(t *testing.T) {
	sk, ef, auths := spillFixture(t, "sharded", 600)
	dir := t.TempDir()
	store, err := newSpillStore(dir, 4, 4, 1)
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
	if st.Spills == 0 {
		t.Fatalf("no spills across %d puts through a window of 4", keys)
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
	store, err := newSpillStore(dir, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutProver("audit:x", newProverOrDie(t, sk.Pub, ef, auths)); err != nil {
		t.Fatal(err)
	}
	// A second put evicts the first to disk.
	sk2, ef2, auths2 := spillFixture(t, "corrupt-2", 400)
	if err := store.PutProver("audit:y", newProverOrDie(t, sk2.Pub, ef2, auths2)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "shard-*", "*.state"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files = %v, err=%v, want exactly 1", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := store.GetProver("audit:x")
	if err == nil {
		t.Fatalf("corrupted record returned ok=%v with no error", ok)
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
