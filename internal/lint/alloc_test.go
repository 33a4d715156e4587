package lint_test

import (
	"runtime"
	"testing"

	"desync/internal/designs"
	"desync/internal/lint"
	"desync/internal/netlist"
)

// allocSpec is the design the allocation guard and BenchmarkCheckMidFlow
// lint: a 12,352-instance pre-grouped pipeline, the mid-flow gate's input
// at roughly a quarter of pipeline-50k's size.
const allocSpec = "pipeline:depth=48,width=64,regions=4"

// maxAllocsPerInst bounds the objects one mid-flow lint.Check allocates
// per instance. The map-keyed rules allocated 8.57 on allocSpec; the dense
// rules allocate a fixed set of side tables, 0.006 per instance, and build
// strings only for findings, of which this clean design has none.
const maxAllocsPerInst = 0.05

func allocDesign(tb testing.TB) *netlist.Module {
	tb.Helper()
	d, err := designs.ParseSpec(allocSpec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if rep := lint.Check(d.Top, lint.Options{MidFlow: true}); rep.Count(lint.Warning) != 0 {
		tb.Fatalf("%s is not lint-clean:\n%s", allocSpec, rep.Text())
	}
	return d.Top
}

// TestCheckAllocsPerInst guards the dense NL-* rules: a mid-flow check of
// a clean module allocates side tables, not objects per instance, net or
// pin.
func TestCheckAllocsPerInst(t *testing.T) {
	m := allocDesign(t)
	allocs := testing.AllocsPerRun(3, func() { lint.Check(m, lint.Options{MidFlow: true}) })
	if per := allocs / float64(len(m.Insts)); per >= maxAllocsPerInst {
		t.Fatalf("mid-flow lint.Check allocates %.0f objects for %d instances (%.2f per instance), want under %.2f",
			allocs, len(m.Insts), per, maxAllocsPerInst)
	}
}

// BenchmarkCheckMidFlow times one mid-flow lint.Check — the gate vflow runs
// at every stage boundary — and reports its allocations per instance.
func BenchmarkCheckMidFlow(b *testing.B) {
	m := allocDesign(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lint.Check(m, lint.Options{MidFlow: true})
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(len(m.Insts))
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "objs/inst")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/inst")
	b.ReportMetric(float64(len(m.Insts)), "instances")
}
