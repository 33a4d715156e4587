package par

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// Fold runs compute(ctx, i) for i in [start, n) on at most Workers()
// goroutines and folds every result exactly once, strictly in index order,
// on the caller's goroutine. It is the streaming counterpart of Map: the
// per-task results never accumulate into a slice, so a sweep over 10^6
// scenarios holds O(workers) results in memory while its aggregates (and
// its checkpoint journal) still see the exact serial order — byte-identical
// output at any worker count.
//
// The reorder buffer is bounded: a worker takes a token before it claims an
// index, and the fold returns the token once it has folded that index, so
// at most 2*workers indices are claimed but not folded. However slow one
// index is, the caller holds at most 2*workers undelivered results; the
// workers that race ahead of it block instead.
//
// fold may return an error to stop the sweep early (a graceful cutoff such
// as "too many failures"); that error is returned as-is, no further fold
// calls happen, and in-flight computes are cancelled. Once ctx is cancelled
// (by the caller, or by fold itself through the caller's cancel func) no
// further fold calls happen either, as in the serial path, even for results
// already computed; Fold then returns ctx.Err(). A compute error stops the
// fold as on the serial path: every index below the lowest failing one is
// computed and folded (a valid journal prefix), and the error returned is
// ForEach's, the lowest-index compute error that is not a cancellation
// echo. A fold error always precedes (in index order) any concurrent
// compute error, so it wins.
func Fold[R any](ctx context.Context, start, n int, compute func(ctx context.Context, i int) (R, error), fold func(i int, r R) error) error {
	if start < 0 {
		start = 0
	}
	if n <= start {
		return ctx.Err()
	}
	workers := Workers()
	if workers > n-start {
		workers = n - start
	}
	if workers <= 1 {
		// The serial path is the specification the parallel one must match:
		// compute then fold, index by index, first error wins.
		for i := start; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			r, err := compute(ctx, i)
			if err != nil {
				return err
			}
			if err := fold(i, r); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type slot struct {
		i   int
		r   R
		err error
	}
	// Every slot in flight holds a token, so a send on ch never blocks.
	tokens := make(chan struct{}, 2*workers)
	ch := make(chan slot, 2*workers)
	var next, low atomic.Int64 // low: the lowest failing index so far
	next.Store(int64(start))
	low.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case tokens <- struct{}{}:
				case <-cctx.Done():
					return
				}
				i := next.Add(1) - 1
				if i >= low.Load() || cctx.Err() != nil {
					return
				}
				r, err := compute(cctx, int(i))
				ch <- slot{i: int(i), r: r, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()

	pending := make(map[int]slot, 2*workers)
	errs := map[int]error{}
	var foldErr error
	want := start
	for s := range ch {
		if s.err != nil {
			errs[s.i] = s.err
			low.Store(min(low.Load(), int64(s.i))) // the one writer
		} else {
			pending[s.i] = s
		}
		// Fold in order up to the lowest failure, then stop what still runs.
		for foldErr == nil && int64(want) < low.Load() && ctx.Err() == nil {
			p, ok := pending[want]
			if !ok {
				break
			}
			delete(pending, want)
			if foldErr = fold(p.i, p.r); foldErr == nil {
				<-tokens
				want++
			}
		}
		if foldErr != nil || int64(want) >= low.Load() {
			cancel()
		}
	}
	if foldErr != nil {
		return foldErr
	}
	// Deterministic selection, as in ForEach: the lowest-index compute error
	// that is not just the cancellation rippling through sibling tasks.
	idxs := make([]int, 0, len(errs))
	for i := range errs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var firstAny error
	for _, i := range idxs {
		err := errs[i]
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
