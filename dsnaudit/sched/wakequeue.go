// Package sched is the audit driver: the Scheduler that runs any number of
// engagements off one chain's block clock, with per-tick cost
// O(engagements due at that height), not O(engagements registered).
//
// Scanning every registered engagement on every block tick is fine at
// thousands of engagements and ruinous at a million: almost all of them are
// parked in AUDIT waiting for a trigger height dozens or hundreds of blocks
// away, and a scan touches each of them anyway. The scheduler keeps a wake
// queue instead — engagements are indexed by the exact height they next act
// at, and a tick pops only what is due — while one block clock — the Run
// loop's own MineBlock — drives the whole fleet.
//
// The scheduling order is deterministic by construction: every registered
// engagement carries a global registration sequence number, a tick's pop is
// sorted by it before any contract is touched, and so the transaction
// stream — challenges, proofs, settlements — is the order a walk over the
// registrations would produce. The determinism tests pin that down.
package sched

import "container/heap"

// wakeQueue indexes values by the block height they next act at. Arm files
// a value under a height; PopDue removes and returns everything at or below
// a height. Values are returned grouped by ascending height and, within one
// height, in arm order — a stable order the scheduler then refines by
// global sequence number.
//
// The structure is a bucket map plus a min-heap of the distinct heights in
// use, so Arm is O(log heights) and PopDue is O(popped + log heights):
// what is not due costs nothing, which is the whole point. There is no
// mid-queue deletion — the scheduler owns an entry from the moment it is
// popped until it re-arms it, so a queued value is never retracted.
//
// Not safe for concurrent use; callers hold the store lock.
type wakeQueue[T any] struct {
	buckets map[uint64][]T
	heights heightHeap
	size    int
}

func newWakeQueue[T any]() *wakeQueue[T] {
	return &wakeQueue[T]{buckets: make(map[uint64][]T)}
}

// Arm files v to act at height h. Heights in the past are legal: PopDue for
// any later height returns them.
func (q *wakeQueue[T]) Arm(h uint64, v T) {
	bucket, ok := q.buckets[h]
	if !ok {
		heap.Push(&q.heights, h)
	}
	q.buckets[h] = append(bucket, v)
	q.size++
}

// PopDue removes and returns every value armed at a height <= h.
func (q *wakeQueue[T]) PopDue(h uint64) []T {
	var due []T
	for len(q.heights) > 0 && q.heights[0] <= h {
		top := heap.Pop(&q.heights).(uint64)
		due = append(due, q.buckets[top]...)
		delete(q.buckets, top)
	}
	q.size -= len(due)
	return due
}

// Len returns the number of armed values.
func (q *wakeQueue[T]) Len() int { return q.size }

// heightHeap is a min-heap of distinct block heights.
type heightHeap []uint64

func (h heightHeap) Len() int           { return len(h) }
func (h heightHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h heightHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *heightHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *heightHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
