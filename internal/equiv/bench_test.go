package equiv

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"desync/internal/ctrlnet"
)

// dlxStates is the reduced reachable-marking count of the desynchronized
// DLX control network. It is pinned (rather than merely bounded) so that
// any change to the model construction or the partial-order reduction is
// a conscious decision: a silent growth here is how the gate stops being
// tractable.
const dlxStates = 4013

// dlxExploreBudget bounds one reduced exploration of the DLX network. The
// gate runs inside drdesync and make check; it must stay interactive.
const dlxExploreBudget = 30 * time.Second

// TestExploreDLXAllocs bounds one reduced DLX exploration at 50,000
// allocations and pins its marking count. The search allocates per fired
// transition (the successor marking and its visited-set key), so a
// per-marking or per-level cost added back shows up here first.
func TestExploreDLXAllocs(t *testing.T) {
	dlx := converted(t, "dlx").Top
	m, err := FromNetwork(dlx, ctrlnet.Derive(dlx))
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	allocs := testing.AllocsPerRun(2, func() { res = mustExplore(t, m, ExploreOptions{}) })
	if !res.Clean() || res.States != dlxStates || allocs >= 50_000 {
		t.Fatalf("DLX exploration: clean %v, %d markings (pinned %d), %.0f allocations (bound 50000)",
			res.Clean(), res.States, dlxStates, allocs)
	}
}

// BenchmarkEquivDLX guards the formal gate's cost on the DLX case study:
// the reduced state count must stay exactly dlxStates and a single
// exploration must finish within dlxExploreBudget.
func BenchmarkEquivDLX(b *testing.B) {
	dlx := converted(b, "dlx").Top
	m, err := FromNetwork(dlx, ctrlnet.Derive(dlx))
	if err != nil {
		b.Fatalf("FromNetwork: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res := mustExplore(b, m, ExploreOptions{})
		if d := time.Since(start); d > dlxExploreBudget {
			b.Fatalf("exploration took %v, budget %v", d, dlxExploreBudget)
		}
		if !res.Clean() {
			b.Fatalf("DLX network no longer verifies: %+v", res.Violation)
		}
		if res.States != dlxStates {
			b.Fatalf("reduced state count drifted: got %d, pinned %d (update the pin deliberately)", res.States, dlxStates)
		}
	}
	b.ReportMetric(float64(dlxStates), "markings")
}

// BenchmarkEquivScaling measures the ARM cross-validation trace fan-out
// across GOMAXPROCS values for the EXPERIMENTS.md parallel-kernels table.
func BenchmarkEquivScaling(b *testing.B) {
	arm := converted(b, "arm").Top
	ma, err := FromNetwork(arm, ctrlnet.Derive(arm))
	if err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, j := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(j)
		b.Run(fmt.Sprintf("arm-xval-j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, err := ma.CrossValidate(context.Background(), arm, XValConfig{Traces: 4, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				if x.Divergence != nil {
					b.Fatalf("ARM xval diverged: %+v", x.Divergence)
				}
			}
		})
	}
}

// BenchmarkModelFromFreshDerive vs BenchmarkModelFromSharedNetwork price
// what the derive-once refactor buys: extraction on top of a private
// re-derivation of the control network versus extraction reusing the IR the
// rest of the run already holds.
func BenchmarkModelFromFreshDerive(b *testing.B) {
	dlx := converted(b, "dlx").Top
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromNetwork(dlx, ctrlnet.DeriveFresh(dlx)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelFromSharedNetwork(b *testing.B) {
	dlx := converted(b, "dlx").Top
	cn := ctrlnet.Derive(dlx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromNetwork(dlx, cn); err != nil {
			b.Fatal(err)
		}
	}
}
