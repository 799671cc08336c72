// Package dht implements an in-memory Chord-style distributed hash table
// (Stoica et al., the paper's reference [16]), the lookup/routing substrate
// of the decentralized storage architecture in Fig. 1: data owners locate
// storage-provider candidates by key, and chunk placement follows
// consistent hashing with configurable replication.
//
// The simulation is single-process: the ring is one sorted node list, and
// placement is the successor rule (Providers). The tests route greedy Chord
// lookups over the same ring, finger i of a node being the successor of its
// ID + 2^i, and pin their O(log N) hop counts.
package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ID is a point on the Chord ring.
type ID uint64

// hashKey maps an arbitrary key to the ring.
func hashKey(key []byte) ID {
	h := sha256.Sum256(key)
	return ID(binary.BigEndian.Uint64(h[:8]))
}

// HashString maps a string key to the ring.
func HashString(key string) ID { return hashKey([]byte(key)) }

// Node is one DHT participant (a storage provider in the paper's setting).
type Node struct {
	ID   ID
	Addr string // opaque endpoint label, e.g. "provider-17"
}

// Ring is the complete simulated overlay. All membership changes go through
// the Ring, which maintains the sorted node list.
type Ring struct {
	mu    sync.RWMutex
	nodes []*Node // sorted by ID
}

// NewRing returns an empty overlay.
func NewRing() *Ring { return &Ring{} }

var (
	// errEmptyRing is returned by lookups on an overlay with no nodes.
	errEmptyRing = errors.New("dht: ring has no nodes")
	// errDuplicateID is returned when a joining node collides.
	errDuplicateID = errors.New("dht: duplicate node id")
)

// Join adds a node with an ID derived from its address.
func (r *Ring) Join(addr string) (*Node, error) {
	return r.joinWithID(HashString(addr), addr)
}

// joinWithID adds a node at an explicit ring position.
func (r *Ring) joinWithID(id ID, addr string) (*Node, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].ID >= id })
	if idx < len(r.nodes) && r.nodes[idx].ID == id {
		return nil, fmt.Errorf("%w: %d", errDuplicateID, id)
	}
	n := &Node{ID: id, Addr: addr}
	r.nodes = append(r.nodes, nil)
	copy(r.nodes[idx+1:], r.nodes[idx:])
	r.nodes[idx] = n
	return n, nil
}

// Leave removes a node (graceful departure or crash -- the overlay does not
// distinguish; stored data durability is the erasure code's job).
func (r *Ring) Leave(id ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].ID >= id })
	if idx >= len(r.nodes) || r.nodes[idx].ID != id {
		return false
	}
	r.nodes = append(r.nodes[:idx], r.nodes[idx+1:]...)
	return true
}

// Size returns the node count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Providers returns the count distinct nodes responsible for key and its
// replicas: the successor plus following nodes on the ring, the standard
// replica-placement rule. This is how a data owner selects the storage
// providers for its erasure-coded shares.
func (r *Ring) Providers(key ID, count int) ([]*Node, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 {
		return nil, errEmptyRing
	}
	if count > len(r.nodes) {
		return nil, fmt.Errorf("dht: requested %d providers from a ring of %d", count, len(r.nodes))
	}
	out := make([]*Node, 0, count)
	idx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].ID >= key })
	for len(out) < count {
		out = append(out, r.nodes[idx%len(r.nodes)])
		idx++
	}
	return out, nil
}
