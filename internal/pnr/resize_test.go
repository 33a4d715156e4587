package pnr

import (
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/sta"
	"desync/internal/stdcells"
)

// §4.7 in-place optimization: resizing drive strengths on the worst paths
// shortens the critical path without restructuring any logic.
func TestResizeForTiming(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	d, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		t.Fatal(err)
	}
	cellsBefore := len(d.Top.Insts)
	netsBefore := len(d.Top.Nets)
	rep, err := ResizeForTiming(d, sta.Options{Corner: netlist.Worst}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Upsized == 0 {
		t.Fatal("nothing resized")
	}
	if rep.After >= rep.Before {
		t.Fatalf("critical path did not improve: %.4f -> %.4f", rep.Before, rep.After)
	}
	if rep.AreaAfter <= rep.AreaBefore {
		t.Fatal("stronger drives must cost area")
	}
	// Structure untouched: same cells, same nets, only cell bindings moved.
	if len(d.Top.Insts) != cellsBefore || len(d.Top.Nets) != netsBefore {
		t.Fatal("resize restructured the netlist")
	}
	if errs := d.Top.Check(); len(errs) > 0 {
		t.Fatalf("check: %v", errs[0])
	}
	// The design still computes after resizing: the simulator sees only
	// faster cells of the same function (spot check via STA re-run).
	g, err := sta.Build(d.Top, sta.Options{Corner: netlist.Worst})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Analyze().WorstEndpointArrival(); got != rep.After {
		t.Fatalf("report inconsistent with timing: %.4f vs %.4f", got, rep.After)
	}
}

// Resizing applies to the controller network too — size-only cells may be
// sized (§4.6.2).
func TestResizeRespectsDesynchronizedNetlist(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	d, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		t.Fatal(err)
	}
	cres, err := core.Convert(context.Background(), d, core.Options{Period: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ResizeForTiming(d, sta.Options{Corner: netlist.Worst, Disabled: cres.DisabledArcMap()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.After > rep.Before {
		t.Fatal("resize made the desynchronized design worse")
	}
	if errs := d.Top.Check(); len(errs) > 0 {
		t.Fatalf("check: %v", errs[0])
	}
}
