package dht

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
)

func buildRing(t testing.TB, n int) *Ring {
	t.Helper()
	r := NewRing()
	for i := 0; i < n; i++ {
		if _, err := r.Join(fmt.Sprintf("provider-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestJoinLeave(t *testing.T) {
	r := buildRing(t, 10)
	if r.Size() != 10 {
		t.Fatalf("size = %d, want 10", r.Size())
	}
	nodes := r.nodeList()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].ID >= nodes[i].ID {
			t.Fatal("nodes not sorted")
		}
	}
	if !r.Leave(nodes[3].ID) {
		t.Fatal("leave failed")
	}
	if r.Leave(nodes[3].ID) {
		t.Fatal("double leave succeeded")
	}
	if r.Size() != 9 {
		t.Fatalf("size after leave = %d", r.Size())
	}
}

func TestJoinDuplicate(t *testing.T) {
	r := NewRing()
	if _, err := r.joinWithID(42, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.joinWithID(42, "b"); err == nil {
		t.Fatal("accepted duplicate ID")
	}
}

func TestSuccessorWraps(t *testing.T) {
	r := NewRing()
	r.joinWithID(100, "a")
	r.joinWithID(200, "b")
	n, err := r.successor(150)
	if err != nil || n.ID != 200 {
		t.Fatalf("successor(150) = %v, want 200", n)
	}
	n, _ = r.successor(201) // wraps to the smallest
	if n.ID != 100 {
		t.Fatalf("successor(201) = %v, want 100 (wrap)", n.ID)
	}
	n, _ = r.successor(100) // exact hit
	if n.ID != 100 {
		t.Fatalf("successor(100) = %v, want 100", n.ID)
	}
}

func TestEmptyRingErrors(t *testing.T) {
	r := NewRing()
	if _, err := r.successor(1); err == nil {
		t.Fatal("successor on empty ring succeeded")
	}
	if _, err := r.Providers(1, 1); err == nil {
		t.Fatal("providers on empty ring succeeded")
	}
}

func TestLookupFindsSuccessor(t *testing.T) {
	r := buildRing(t, 50)
	nodes := r.nodeList()
	for trial := 0; trial < 100; trial++ {
		key := HashString(fmt.Sprintf("key-%d", trial))
		want, _ := r.successor(key)
		from := nodes[trial%len(nodes)]
		got, hops, err := r.lookup(from, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID {
			t.Fatalf("lookup routed to %d, want %d", got.ID, want.ID)
		}
		if hops > idBits {
			t.Fatalf("lookup took %d hops", hops)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	// Average hops must be O(log N): for N=256, well under 16.
	r := buildRing(t, 256)
	nodes := r.nodeList()
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		key := HashString(fmt.Sprintf("k%d", i))
		_, hops, err := r.lookup(nodes[i%len(nodes)], key)
		if err != nil {
			t.Fatal(err)
		}
		total += hops
	}
	avg := float64(total) / trials
	if avg > 2*math.Log2(256) {
		t.Fatalf("average hops %.1f too high for 256 nodes", avg)
	}
}

func TestProvidersDistinct(t *testing.T) {
	r := buildRing(t, 20)
	provs, err := r.Providers(HashString("file-x"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(provs) != 10 {
		t.Fatalf("got %d providers", len(provs))
	}
	seen := map[ID]bool{}
	for _, p := range provs {
		if seen[p.ID] {
			t.Fatal("duplicate provider")
		}
		seen[p.ID] = true
	}
	if _, err := r.Providers(HashString("x"), 21); err == nil {
		t.Fatal("accepted provider count above ring size")
	}
}

func TestProvidersDeterministic(t *testing.T) {
	r := buildRing(t, 12)
	a, _ := r.Providers(HashString("same-key"), 5)
	b, _ := r.Providers(HashString("same-key"), 5)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("provider selection not deterministic")
		}
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		a, b, x ID
		want    bool
	}{
		{10, 20, 15, true},
		{10, 20, 20, true},
		{10, 20, 10, false},
		{10, 20, 25, false},
		{20, 10, 25, true}, // wrapped
		{20, 10, 5, true},  // wrapped
		{20, 10, 15, false},
	}
	for _, c := range cases {
		if got := between(c.a, c.b, c.x); got != c.want {
			t.Fatalf("between(%d,%d,%d) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

// TestRingConcurrentChurn hammers the overlay with concurrent joins,
// leaves, lookups and provider scans. Run under -race this pins the
// Ring's synchronization; functionally it asserts that every lookup
// observed during churn stays internally consistent (errors only on an
// empty ring, results always live ring positions) and that the final
// membership matches the surviving join set.
func TestRingConcurrentChurn(t *testing.T) {
	r := NewRing()
	// A stable base population so lookups always have somewhere to land.
	base := make([]*Node, 0, 16)
	for i := 0; i < 16; i++ {
		n, err := r.Join(fmt.Sprintf("base-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, n)
	}

	const (
		churners = 4
		readers  = 4
		rounds   = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, churners+readers)

	// Churners: each owns a disjoint name space and keeps joining and
	// leaving its nodes, so ring size oscillates under the readers.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				addr := fmt.Sprintf("churn-%d-%d", c, i%8)
				n, err := r.Join(addr)
				if err != nil {
					errs <- fmt.Errorf("join %s: %w", addr, err)
					return
				}
				if !r.Leave(n.ID) {
					errs <- fmt.Errorf("leave %s: node vanished", addr)
					return
				}
			}
		}(c)
	}

	// Readers: lookups, successor scans and provider selections must stay
	// coherent while the membership moves underneath them.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			from := base[g%len(base)]
			for i := 0; i < rounds; i++ {
				key := HashString(fmt.Sprintf("object-%d-%d", g, i))
				node, hops, err := r.lookup(from, key)
				if err != nil {
					errs <- fmt.Errorf("lookup: %w", err)
					return
				}
				if node == nil || hops < 0 {
					errs <- fmt.Errorf("lookup returned node=%v hops=%d", node, hops)
					return
				}
				if _, err := r.successor(key); err != nil {
					errs <- fmt.Errorf("successor: %w", err)
					return
				}
				// The base population alone guarantees 8 distinct
				// providers at any instant.
				provs, err := r.Providers(key, 8)
				if err != nil {
					errs <- fmt.Errorf("providers: %w", err)
					return
				}
				seen := make(map[ID]bool, len(provs))
				for _, p := range provs {
					if p == nil {
						errs <- fmt.Errorf("providers returned nil node")
						return
					}
					if seen[p.ID] {
						errs <- fmt.Errorf("providers returned duplicate node %d", p.ID)
						return
					}
					seen[p.ID] = true
				}
			}
		}(g)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every churner left its nodes; only the base population remains.
	if r.Size() != len(base) {
		t.Fatalf("final ring size %d, want %d", r.Size(), len(base))
	}
	for _, n := range base {
		if got, err := r.successor(n.ID); err != nil || got.ID != n.ID {
			t.Fatalf("base node %s missing after churn: got %v err %v", n.Addr, got, err)
		}
	}
}

// successor returns the node responsible for key.
func (r *Ring) successor(key ID) (*Node, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 {
		return nil, errEmptyRing
	}
	return r.successorLocked(key), nil
}

// lookup routes from a starting node to the owner of key through finger
// tables, Chord-style, returning the responsible node and the hop count.
func (r *Ring) lookup(from *Node, key ID) (*Node, int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 {
		return nil, 0, errEmptyRing
	}
	target := r.successorLocked(key)
	cur := from
	hops := 0
	for cur.ID != target.ID {
		if hops > 2*idBits {
			return nil, hops, errors.New("dht: routing did not converge")
		}
		// Greedy: the finger closest below the key.
		next := r.closestPrecedingLocked(cur, key)
		if next.ID == cur.ID {
			next = r.successorLocked(cur.ID + 1)
		}
		cur = next
		hops++
		if between(cur.ID, target.ID, key) || cur.ID == target.ID {
			return target, hops, nil
		}
	}
	return target, hops, nil
}

// closestPrecedingLocked finds the routing-table entry that most closely
// precedes key.
func (r *Ring) closestPrecedingLocked(n *Node, key ID) *Node {
	for i := idBits - 1; i >= 0; i-- {
		f := r.successorLocked(n.ID + ID(1)<<uint(i)) // finger i
		if between(n.ID, key-1, f.ID) && f.ID != key {
			return f
		}
	}
	return n
}

// nodeList returns a snapshot of the membership, sorted by ID.
func (r *Ring) nodeList() []*Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Node, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// successorLocked returns the first node at or after id (wrapping).
func (r *Ring) successorLocked(id ID) *Node {
	idx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].ID >= id })
	if idx == len(r.nodes) {
		idx = 0
	}
	return r.nodes[idx]
}

// between reports whether x lies in the half-open ring interval (a, b].
func between(a, b, x ID) bool {
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b // wrapped interval
}

// idBits is the identifier-space width. 64 bits keeps IDs printable while
// preserving Chord's structure.
const idBits = 64
