package expt

import (
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/stdcells"
)

// TestScalePipelineSmoke pushes a small pipeline through the full scaling
// row — build, export, re-import, hash, validate, flow, derive — and checks
// every stage actually ran. The 100k wall-clock guard lives in `make scale`;
// this keeps the row's plumbing covered by the ordinary test suite.
func TestScalePipelineSmoke(t *testing.T) {
	row, err := ScalePipeline(context.Background(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if row.Insts < row.Target/2 || row.Insts > row.Target*2 {
		t.Fatalf("generated %d instances for target %d", row.Insts, row.Target)
	}
	if row.Flow == 0 || row.Import == 0 || row.Derive == 0 {
		t.Fatalf("unmeasured stages in row: %+v", row)
	}
	for _, stage := range []string{core.StageSubstitute, core.StageSize, core.StageGenerate} {
		if _, ok := row.Stages[stage]; !ok {
			t.Fatalf("flow never reported stage %q (got %v)", stage, row.SortedStageNames())
		}
	}
}

// BenchmarkNetlistDerive100k is the scaling drift guard `make check` runs:
// a fresh control-network derivation over a desynchronized 100k-instance
// pipeline. Before the prefix-indexed derivation this walked every instance
// once per region and took seconds; a regression back to that shape shows
// up as an order-of-magnitude jump here.
func BenchmarkNetlistDerive100k(b *testing.B) {
	cfg := ScalePipelineCfg(100000)
	d, err := designs.BuildPipeline(stdcells.New(stdcells.HighSpeed), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.Convert(context.Background(), d, core.Options{
		Period: 2.0, ManualGroups: true,
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := ctrlnet.DeriveFresh(d.Top)
		if n.Empty() {
			b.Fatal("derived an empty control network")
		}
	}
}
