package sched

import (
	"math/rand"
	"sort"
	"testing"
)

// NextHeight returns the earliest armed height, if any.
func (q *wakeQueue[T]) NextHeight() (uint64, bool) {
	if len(q.heights) == 0 {
		return 0, false
	}
	return q.heights[0], true
}

func TestWakeQueueBasics(t *testing.T) {
	q := newWakeQueue[int]()
	if got := q.PopDue(100); got != nil {
		t.Fatalf("empty pop returned %v", got)
	}
	q.Arm(5, 50)
	q.Arm(3, 30)
	q.Arm(5, 51)
	q.Arm(9, 90)
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	if h, ok := q.NextHeight(); !ok || h != 3 {
		t.Fatalf("NextHeight = %d,%v, want 3,true", h, ok)
	}
	// PopDue returns ascending heights, arm order within a height.
	got := q.PopDue(5)
	want := []int{30, 50, 51}
	if len(got) != len(want) {
		t.Fatalf("PopDue(5) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PopDue(5) = %v, want %v", got, want)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("Len after pop = %d, want 1", q.Len())
	}
	// Arming in the past is legal; a later pop returns it.
	q.Arm(1, 10)
	got = q.PopDue(9)
	if len(got) != 2 || got[0] != 10 || got[1] != 90 {
		t.Fatalf("PopDue(9) = %v, want [10 90]", got)
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", q.Len())
	}
}

// TestWakeQueueProperty drives random arm/pop sequences against a naive
// reference model: every armed value must come back exactly once, at the
// first pop whose height covers it, never before.
func TestWakeQueueProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		q := newWakeQueue[int]()
		type armed struct {
			h uint64
			v int
		}
		var model []armed
		next := 0
		for step := 0; step < 200; step++ {
			if rng.Intn(3) < 2 {
				h := uint64(rng.Intn(50))
				q.Arm(h, next)
				model = append(model, armed{h, next})
				next++
				continue
			}
			h := uint64(rng.Intn(60))
			got := q.PopDue(h)
			var want []int
			var keep []armed
			for _, a := range model {
				if a.h <= h {
					want = append(want, a.v)
				} else {
					keep = append(keep, a)
				}
			}
			model = keep
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("trial %d step %d: PopDue(%d) returned %d values, want %d", trial, step, h, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d step %d: PopDue(%d) = %v, want %v", trial, step, h, got, want)
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len = %d, model %d", trial, step, q.Len(), len(model))
			}
		}
	}
}
