package core

import "repro/internal/bn256"

// resetTagMemo empties the verifier's tag memo, so the next per-item step
// hashes every tag it needs.
func resetTagMemo() {
	tagMemo.mu.Lock()
	defer tagMemo.mu.Unlock()
	tagMemo.keys, tagMemo.order, tagMemo.bytes = make(map[[32]byte]map[int]*bn256.G1), nil, 0
}
