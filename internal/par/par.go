// Package par is the flow's parallel execution engine: bounded worker
// pools with context cancellation, error-group semantics and — the part
// the flow actually depends on — determinism. The worker count is one rule
// owned here, Workers, not an option threaded through callers: set
// GOMAXPROCS to bound it. Every kernel built on this package (fault
// campaigns, equiv cross-validation, the robustness sweep, per-region STA
// extraction) must produce byte-identical reports at any worker count, so
// the primitives
// here separate *computing* results (any order, any goroutine) from
// *merging* them (always in task-index order, always on the caller's
// goroutine). Callers keep per-task results in index-addressed slots and
// fold them serially; nothing in this package ever exposes completion
// order.
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the pool size of every primitive here: GOMAXPROCS, read at
// each call.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(ctx, i) for i in [0, n) on at most Workers() goroutines.
// Tasks are claimed from a shared counter, so completion order is
// arbitrary — fn must write any result it produces into an index-addressed
// slot.
//
// Error-group semantics, as on the serial path: every task below the
// lowest failing index runs to completion, none above it starts once the
// failure is seen, and the error returned is deterministic — the
// lowest-index task error that is not a cancellation echo, at any worker
// count. A parent-context cancellation with no task error returns
// ctx.Err().
func ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// The serial path is the specification the parallel one must match:
		// same per-task ctx check, same first-error-wins selection.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next, low atomic.Int64 // low: the lowest failing index so far
	low.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= low.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, int(i)); err != nil {
					errs[i] = err
					for l := low.Load(); i < l && !low.CompareAndSwap(l, i); l = low.Load() {
					}
				}
			}
		}()
	}
	wg.Wait()

	// Deterministic selection: prefer the lowest-index error that is not
	// just the cancellation rippling through sibling tasks.
	var firstAny error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstAny == nil {
			firstAny = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstAny
}

// Map runs fn over items on at most Workers() goroutines and returns the
// results in item order, regardless of completion order. On error the
// partial results are discarded and the deterministic ForEach error is
// returned.
func Map[T, R any](ctx context.Context, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := ForEach(ctx, len(items), func(ctx context.Context, i int) error {
		r, err := fn(ctx, i, items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
