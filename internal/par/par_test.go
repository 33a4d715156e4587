package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		if got := Workers(); got != procs {
			t.Fatalf("GOMAXPROCS %d: Workers() = %d", procs, got)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 4, 16} {
		runtime.GOMAXPROCS(workers)
		const n = 1000
		hits := make([]atomic.Int32, n)
		err := ForEach(context.Background(), n, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(context.Background(), 0, func(context.Context, int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachDeterministicError(t *testing.T) {
	// Several tasks fail; the reported error must be the lowest-index one
	// at every worker count, even though completion order differs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(workers)
		for trial := 0; trial < 20; trial++ {
			err := ForEach(context.Background(), 64, func(_ context.Context, i int) error {
				if i == 7 || i == 40 || i == 63 {
					return fmt.Errorf("task %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "task 7 failed" {
				t.Fatalf("workers=%d: got %v, want task 7 failed", workers, err)
			}
		}
	}
}

func TestForEachErrorCancelsSiblings(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var started atomic.Int32
	err := ForEach(context.Background(), 10_000, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v", err)
	}
	// Cancellation is advisory per claim, so some tasks run after the
	// failure — but nowhere near all of them.
	if n := started.Load(); n == 10_000 {
		t.Fatalf("all %d tasks ran despite early error", n)
	}
}

func TestForEachParentCancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEach(ctx, 10_000, func(ctx context.Context, i int) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n == 10_000 {
			t.Fatalf("workers=%d: cancellation not observed", workers)
		}
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i
	}
	var want []int
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 4, 9} {
		runtime.GOMAXPROCS(workers)
		got, err := Map(context.Background(), items, func(_ context.Context, i, item int) (int, error) {
			return item*item + i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, err := Map(context.Background(), []int{0, 1, 2, 3}, func(_ context.Context, i, item int) (int, error) {
		if item >= 2 {
			return 0, fmt.Errorf("item %d", item)
		}
		return item, nil
	})
	if err == nil || err.Error() != "item 2" {
		t.Fatalf("got %v", err)
	}
}
