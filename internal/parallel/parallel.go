// Package parallel provides the bounded-worker execution primitives shared
// by the proof pipeline's hot paths (bn256 multi-scalar multiplication and
// Miller batches, core Setup/Prove/VerifyBatchParallel, contract batch
// settlement).
//
// The design follows the chunked worker-pool pattern: independent work items
// are drained from a shared counter by a bounded set of goroutines, and every
// result is written to a caller-owned slot keyed by item index. Because slots
// are indexed, the assembled output is identical for any worker count — the
// property the audit pipeline's determinism guarantee rests on.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n independent items:
// requested <= 0 selects GOMAXPROCS, and the result is clamped to [1, n]
// (zero items still resolve to one worker so loops stay well-formed).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n > 0 && w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForCtx is For with cooperative cancellation: every worker polls ctx
// before picking up its next item, so a caller whose context dies — a
// remote peer disconnecting mid-proof is the motivating case — stops
// burning CPU after at most one in-flight item per worker. A nil return
// means every fn(i) ran; on cancellation ForCtx returns ctx.Err() and an
// unspecified subset of items was skipped, so the caller must discard any
// partial results.
func ForCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		// An uncancellable context: the polling would never fire.
		For(workers, n, fn)
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// For runs fn(i) for every i in [0, n) across at most workers goroutines
// (workers <= 0 selects GOMAXPROCS) and returns when all calls are done.
// Items are handed out dynamically, so uneven item costs still load-balance;
// fn must write any result it produces to an index-keyed slot of its own.
// With one worker the calls run on the calling goroutine in index order.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
