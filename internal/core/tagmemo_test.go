package core

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"

	"repro/internal/bn256"
)

// hashTag is H(name || i) spelled out from the scheme, not through blockTag.
func hashTag(name [32]byte, i int) *bn256.G1 {
	msg := binary.BigEndian.AppendUint64(append([]byte(nil), name[:]...), uint64(i))
	return bn256.HashToG1(msg)
}

// tagItem returns an item under pub at k = 8 over d chunks, whose tags the
// per-item step carries rather than collapsing into chi. Its proof is only
// decoded, never checked, so any points will do.
func tagItem(pub *PublicKey, d int, rng *mrand.Rand) *BatchItem {
	ch := &Challenge{K: 8}
	for _, seed := range [][]byte{ch.C1[:], ch.C2[:], ch.R[:]} {
		rng.Read(seed)
	}
	proof := &PrivateProof{Sigma: bn256.GenG1(), Psi: bn256.GenG1(), R: pub.EG1Eps}
	return &BatchItem{Pub: pub, NumChunks: d, Challenge: ch, Proof: proof}
}

// namedKey returns a copy of pub under a random Name.
func namedKey(t *testing.T, pub *PublicKey) *PublicKey {
	t.Helper()
	named := *pub
	if err := named.Name.SetRandom(rand.Reader); err != nil {
		t.Fatal(err)
	}
	return &named
}

// checkTags returns an error unless p carries, for each challenged index
// of it, the tag H(name || i).
func checkTags(it *BatchItem, p *PreparedProof) error {
	indices, _, _, err := it.Challenge.Expand(it.NumChunks)
	if err != nil {
		return err
	}
	if len(p.tags) != len(indices) {
		return fmt.Errorf("%d tags for %d indices", len(p.tags), len(indices))
	}
	name := it.Pub.Name.Bytes()
	for j, i := range indices {
		if !p.tags[j].Equal(hashTag(name, i)) {
			return fmt.Errorf("the tag of chunk %d is not H(name || %d)", i, i)
		}
	}
	return nil
}

// TestTagMemoServesHashes prepares items under random names and indices
// cold, then warm, and every tag either run carries is H(name || i) — also
// for one name challenged under two chunk counts, whose index sets overlap,
// and for names prepared one after another, so that a memo serving the next
// index's tag or another name's fails here.
func TestTagMemoServesHashes(t *testing.T) {
	sk, err := KeyGen(2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(1))
	resetTagMemo()
	shared := namedKey(t, sk.Pub)
	for round := 0; round < 3; round++ {
		for _, it := range []*BatchItem{
			tagItem(namedKey(t, sk.Pub), 17, rng),
			tagItem(shared, 17, rng),
			tagItem(shared, 9, rng),
			tagItem(namedKey(t, sk.Pub), 339, rng),
		} {
			for _, pass := range []string{"cold", "warm"} {
				if err := checkTags(it, prepareItem(it, keyID(it.Pub), 2)); err != nil {
					t.Fatalf("round %d, d = %d, %s: %v", round, it.NumChunks, pass, err)
				}
			}
		}
	}
}

// TestTagMemoConcurrent prepares items from eight goroutines at once, under
// names each goroutine has to itself and names all of them share, and checks
// every tag (run with -race).
func TestTagMemoConcurrent(t *testing.T) {
	sk, err := KeyGen(2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	resetTagMemo()
	common := []*PublicKey{namedKey(t, sk.Pub), namedKey(t, sk.Pub)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		own := namedKey(t, sk.Pub)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(g)))
			for r := 0; r < 4; r++ {
				for _, pub := range []*PublicKey{common[r%2], own} {
					it := tagItem(pub, 17, rng)
					if err := checkTags(it, prepareItem(it, keyID(pub), 1+r%2)); err != nil {
						t.Errorf("goroutine %d, round %d: %v", g, r, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTagMemoBudget fills a memo of its own name by name: it never holds
// more than tagMemoBytes, charges each name its tags, evicts the oldest
// name first, and keeps no table that alone outgrows it — whether it comes
// in whole or grows there — without displacing the others.
func TestTagMemoBudget(t *testing.T) {
	m := tagTables{keys: make(map[[32]byte]map[int]*bn256.G1)}
	point := bn256.GenG1()
	fill := func(name byte, from, n int) {
		indices, tags, missed := make([]int, n), make([]*bn256.G1, n), make([]int, n)
		for j := range indices {
			indices[j], tags[j], missed[j] = from+j, point, j
		}
		m.store([32]byte{name}, indices, tags, missed)
	}
	held := func() int {
		total := 0
		for _, table := range m.keys {
			total += len(table) * tagBytes
		}
		return total
	}
	perName := tagMemoBytes / tagBytes / 4
	for name := byte(1); name <= 6; name++ {
		fill(name, 0, perName)
		if m.bytes > tagMemoBytes || m.bytes != held() {
			t.Fatalf("after name %d: charged %d bytes, tables hold %d, budget %d", name, m.bytes, held(), tagMemoBytes)
		}
	}
	for name := byte(1); name <= 6; name++ {
		if kept := m.lookup([32]byte{name}, []int{0})[0] != nil; kept != (name > 2) {
			t.Fatalf("name %d kept %v after six quarters", name, kept)
		}
	}
	fill(3, perName, perName/2) // grows the oldest name, which evicts it
	if m.lookup([32]byte{3}, []int{0})[0] != nil || m.bytes != held() {
		t.Fatal("growing the oldest name past the budget kept it")
	}

	fill(7, 0, tagMemoBytes/tagBytes+1)
	if m.lookup([32]byte{7}, []int{0})[0] != nil {
		t.Fatal("a table larger than the memo was kept")
	}
	fill(6, perName, 3*perName+1)
	if m.lookup([32]byte{6}, []int{0})[0] != nil {
		t.Fatal("a table grown past the memo was kept")
	}
	if m.lookup([32]byte{4}, []int{0})[0] == nil || m.lookup([32]byte{5}, []int{0})[0] == nil {
		t.Fatal("a table too large to keep displaced the others")
	}
	if m.bytes != held() || m.bytes > tagMemoBytes {
		t.Fatalf("charged %d bytes, tables hold %d", m.bytes, held())
	}
}
