package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFoldOrdered: the fold must see every index exactly once, strictly
// ascending, at any worker count — the property checkpoint journals and
// streaming aggregates are built on.
func TestFoldOrdered(t *testing.T) {
	const n = 500
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 3, 8, 32} {
		runtime.GOMAXPROCS(workers)
		want := 0
		sum := 0
		err := Fold(context.Background(), 0, n,
			func(_ context.Context, i int) (int, error) {
				runtime.Gosched() // shake completion order
				return 3 * i, nil
			},
			func(i, r int) error {
				if i != want {
					t.Fatalf("workers=%d: fold saw index %d, want %d", workers, i, want)
				}
				if r != 3*i {
					t.Fatalf("workers=%d: fold saw result %d for index %d", workers, r, i)
				}
				want++
				sum += r
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want != n || sum != 3*n*(n-1)/2 {
			t.Fatalf("workers=%d: folded %d of %d (sum %d)", workers, want, n, sum)
		}
	}
}

// TestFoldStart: resume semantics — folding [start, n) touches exactly the
// tail, so a journal replay can hand the engine its first unwritten index.
func TestFoldStart(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		want := 100
		err := Fold(context.Background(), 100, 150,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(i, r int) error {
				if i != want {
					t.Fatalf("workers=%d: fold saw %d, want %d", workers, i, want)
				}
				want++
				return nil
			})
		if err != nil || want != 150 {
			t.Fatalf("workers=%d: folded up to %d, err %v", workers, want, err)
		}
	}
}

// TestFoldEmpty: an already-complete range folds nothing and succeeds.
func TestFoldEmpty(t *testing.T) {
	err := Fold(context.Background(), 10, 10,
		func(_ context.Context, i int) (int, error) { t.Fatal("compute called"); return 0, nil },
		func(i, r int) error { t.Fatal("fold called"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestFoldComputeError: as on the serial path, the lowest failing compute
// surfaces its own error (not a cancellation echo) and every index below
// it is folded, in one contiguous prefix — the journal is left valid.
func TestFoldComputeError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(workers)
		for trial := 0; trial < 20; trial++ {
			last := -1
			err := Fold(context.Background(), 0, 200,
				func(_ context.Context, i int) (int, error) {
					if i == 7 || i == 37 || i == 40 {
						return 0, fmt.Errorf("task %d failed", i)
					}
					return i, nil
				},
				func(i, r int) error {
					if i != last+1 {
						t.Fatalf("workers=%d: non-contiguous fold at %d after %d", workers, i, last)
					}
					last = i
					return nil
				})
			if err == nil || err.Error() != "task 7 failed" || last != 6 {
				t.Fatalf("workers=%d: got %v after folding up to %d, want task 7 failed after 6", workers, err, last)
			}
		}
	}
}

// TestFoldFoldError: the fold's own error is a graceful early stop — it
// comes back verbatim and no further fold calls happen.
func TestFoldFoldError(t *testing.T) {
	stop := errors.New("enough")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 6} {
		runtime.GOMAXPROCS(workers)
		calls := 0
		err := Fold(context.Background(), 0, 1000,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(i, r int) error {
				calls++
				if i == 25 {
					return stop
				}
				return nil
			})
		if !errors.Is(err, stop) {
			t.Fatalf("workers=%d: got %v, want stop", workers, err)
		}
		if calls != 26 {
			t.Fatalf("workers=%d: %d fold calls, want 26", workers, calls)
		}
	}
}

// TestFoldStopsAtCancel: a fold that cancels the caller's context is the
// last fold call, as in the serial path, even when the results of every
// later index are already computed and waiting in the reorder buffer.
func TestFoldStopsAtCancel(t *testing.T) {
	const n = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		ctx, cancel := context.WithCancel(context.Background())
		var computed atomic.Int64
		calls := 0
		err := Fold(ctx, 0, n,
			func(_ context.Context, i int) (int, error) {
				// Index 0 finishes last, so the fold of index 0 finds
				// every other result Fold lets the workers compute
				// waiting.
				if i == 0 && workers > 1 {
					finishLast(&computed, n)
				}
				computed.Add(1)
				return i, nil
			},
			func(i, r int) error {
				calls++
				if i == 0 {
					cancel()
				}
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if calls != 1 {
			t.Fatalf("workers=%d: %d fold calls after cancelling at the first, want 1", workers, calls)
		}
	}
}

// finishLast holds index 0's compute until every other index is computed
// or, once Fold's bound has stopped the other workers, 100 ms have passed.
func finishLast(computed *atomic.Int64, n int) {
	for deadline := time.Now().Add(100 * time.Millisecond); computed.Load() < int64(n-1) && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// TestFoldBoundsPending: when index 0 finishes last, the results computed
// but not yet folded stay within the documented 2*workers, instead of the
// whole sweep piling up behind the slow index.
func TestFoldBoundsPending(t *testing.T) {
	const n, workers = 64, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	var computed, folded, high atomic.Int64
	err := Fold(context.Background(), 0, n,
		func(_ context.Context, i int) (int, error) {
			if i == 0 {
				finishLast(&computed, n)
			}
			waiting := computed.Add(1) - folded.Load()
			for h := high.Load(); waiting > h && !high.CompareAndSwap(h, waiting); h = high.Load() {
			}
			return i, nil
		},
		func(i, r int) error {
			folded.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if folded.Load() != n {
		t.Fatalf("folded %d of %d results", folded.Load(), n)
	}
	if h := high.Load(); h > 2*workers {
		t.Fatalf("%d results computed but not folded at once, want at most 2*workers = %d", h, 2*workers)
	}
}

// TestFoldCancel: parent-context cancellation aborts with ctx.Err().
func TestFoldCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	err := Fold(ctx, 0, 100,
		func(ctx context.Context, i int) (int, error) { return i, ctx.Err() },
		func(i, r int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
