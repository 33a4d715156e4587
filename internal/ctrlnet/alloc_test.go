package ctrlnet_test

import (
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/netlist"
)

// allocSpec is the design the allocation guard derives once converted: a
// 12,352-instance pre-grouped pipeline in four regions, a quarter of
// pipeline-50k's input size.
const allocSpec = "pipeline:depth=48,width=64,regions=4"

// maxDeriveAllocs bounds the objects one DeriveFresh of the converted
// allocSpec allocates: half the 71,441 of the map-keyed derivation, which
// built a source set per net, a visiting set per latch and per data net,
// and a root list per enable net. The dense derivation allocates its
// tables, arenas and the network's own records: 886 objects.
const maxDeriveAllocs = 71441 / 2

func allocModule(tb testing.TB) *netlist.Module {
	tb.Helper()
	d, err := designs.ParseSpec(allocSpec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := core.Convert(context.Background(), d, core.Options{ManualGroups: true}); err != nil {
		tb.Fatal(err)
	}
	return d.Top
}

// TestDeriveFreshAllocs guards the dense derivation: its walks keep state
// in tables and arenas, not in a map or a slice per net.
func TestDeriveFreshAllocs(t *testing.T) {
	m := allocModule(t)
	if allocs := testing.AllocsPerRun(3, func() { ctrlnet.DeriveFresh(m) }); allocs > maxDeriveAllocs {
		t.Fatalf("DeriveFresh allocates %.0f objects on the converted %s, want at most %d", allocs, allocSpec, maxDeriveAllocs)
	}
}
