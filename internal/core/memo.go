package core

import (
	"slices"
	"sync"

	"repro/internal/bn256"
)

// memo is a bounded map behind one mutex, the shape of core's two memos:
// validated key bodies (keyBodies) and verifier-side chunk tags (tagTables).
// It holds at most a byte budget of entries, each as large as its owner's
// size function says, and evicts the oldest key first. The points a memo
// hands out are shared with every later reader on any goroutine, so they
// are read-only once stored: nothing may write to a decoded key's points or
// to a tag. The maps that hold them change only under mu.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	keys  map[K]V
	order []K // insertion order, oldest first: the eviction order
	bytes int
}

// charge stores v under k unless k holds something already, adds n bytes
// to what k's entry holds (all of it when new), and evicts the oldest
// entries until the memo fits in budget, sizing each by size. An entry that
// alone is larger than budget is dropped and displaces nothing. The caller
// holds mu.
func (m *memo[K, V]) charge(k K, v V, n, budget int, size func(K, V) int) {
	if _, ok := m.keys[k]; !ok {
		m.keys[k] = v
		m.order = append(m.order, k)
	}
	m.bytes += n
	if size(k, m.keys[k]) > budget {
		at := slices.Index(m.order, k)
		m.order = slices.Delete(m.order, at, at+1)
		m.bytes -= size(k, m.keys[k])
		delete(m.keys, k)
		return
	}
	for m.bytes > budget {
		oldest := m.order[0]
		m.order = m.order[1:]
		m.bytes -= size(oldest, m.keys[oldest])
		delete(m.keys, oldest)
	}
}

// keyMemoBytes bounds the key-body encodings the memo holds (a body at
// s = 50 with the privacy element is about 2 KiB, so some 500 keys); the
// decoded points it keeps alive take about three times as much.
const keyMemoBytes = 1 << 20

// keyMemo maps a validated key's encoding minus its Name to the points of
// the key that first decoded it, which every later decode shares.
var keyMemo = keyBodies{keys: make(map[string]*PublicKey)}

type keyBodies memo[string, *PublicKey]

// bodyBytes is what a key body costs the memo: its encoding.
func bodyBytes(body string, _ *PublicKey) int { return len(body) }

// get returns the key remembered for body, or nil.
func (m *keyBodies) get(body []byte) *PublicKey {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.keys[string(body)]
}

// put remembers pk's points under body, in a PublicKey of their own (S and
// Name unset, the Powers slice copied), evicting the oldest bodies until the
// memo fits. A body larger than the whole memo is not kept.
func (m *keyBodies) put(body []byte, pk *PublicKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.keys[string(body)]; ok {
		return
	}
	shared := &PublicKey{Epsilon: pk.Epsilon, Delta: pk.Delta, Powers: slices.Clone(pk.Powers), EG1Eps: pk.EG1Eps}
	(*memo[string, *PublicKey])(m).charge(string(body), shared, len(body), keyMemoBytes, bodyBytes)
}

// tagMemoBytes bounds the tags the verifier's memo holds: some 32 000 of
// them, or 16 files of the paper's 339 chunks six times over.
const tagMemoBytes = 4 << 20

// tagBytes is what one tag costs the memo: its 96-byte point, the G1 that
// holds it and its slot in the name's table.
const tagBytes = 128

// tagMemo maps a key's Name to the tags H(name||i) the per-item step has
// hashed under it, by chunk index i. A tag is a function of the name and
// the index alone, so the chunk count, ε and δ are not part of the key, a
// hit is always the tag the hash would give, and no input can plant a wrong
// one. Only prepareItem reads and fills it: Setup, the provider's intake
// check and VerifyPrivate hash their tags themselves.
var tagMemo = tagTables{keys: make(map[[32]byte]map[int]*bn256.G1)}

type tagTables memo[[32]byte, map[int]*bn256.G1]

// tableBytes is what a name's table of tags costs the memo.
func tableBytes(_ [32]byte, table map[int]*bn256.G1) int { return len(table) * tagBytes }

// lookup returns the remembered tag of each of indices under name, nil
// where there is none, taking the lock once.
func (m *tagTables) lookup(name [32]byte, indices []int) []*bn256.G1 {
	tags := make([]*bn256.G1, len(indices))
	m.mu.Lock()
	defer m.mu.Unlock()
	table := m.keys[name]
	for j, i := range indices {
		tags[j] = table[i]
	}
	return tags
}

// store remembers tags[j] as the tag of indices[j] under name for each j of
// missed, evicting the oldest names until the memo fits. A tag stored once
// is never replaced, and a name whose table alone outgrows the memo is not
// kept.
func (m *tagTables) store(name [32]byte, indices []int, tags []*bn256.G1, missed []int) {
	if len(missed) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	table := m.keys[name]
	if table == nil {
		table = make(map[int]*bn256.G1, len(missed))
	}
	before := len(table)
	for _, j := range missed {
		if _, ok := table[indices[j]]; !ok {
			table[indices[j]] = tags[j]
		}
	}
	(*memo[[32]byte, map[int]*bn256.G1])(m).charge(name, table, (len(table)-before)*tagBytes, tagMemoBytes, tableBytes)
}
