package core

import (
	"context"
	"testing"

	"desync/internal/designs"
	"desync/internal/faults"
	"desync/internal/netlist"
	"desync/internal/sim"
)

// §2.4.4: the completion-detection alternative must preserve flow
// equivalence while running at data-dependent speed, at roughly 2x the
// combinational area.
func TestCompletionDetectionFlowEquivalence(t *testing.T) {
	lib := hs()
	prog := designs.TestProgram()

	dsync, err := designs.BuildDLX(lib, prog)
	if err != nil {
		t.Fatal(err)
	}
	ddes, err := designs.BuildDLX(lib, prog)
	if err != nil {
		t.Fatal(err)
	}
	combBefore := func() float64 {
		CleanLogic(dsync.Top)
		var a float64
		for _, in := range dsync.Top.Insts {
			if in.Cell != nil && in.Cell.Kind == netlist.KindComb {
				a += in.Cell.Area
			}
		}
		return a
	}()

	res, err := Convert(context.Background(), ddes, Options{Period: 5, Mode: ModeCompletion})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insert.CompletionCells == 0 {
		t.Fatal("no completion cells created")
	}
	// Area: the completion networks roughly double-to-quadruple the
	// combinational logic (the paper cites ~2x; our generic prime-implicant
	// images are less optimized than hand-mapped dual-rail cells).
	var combAfter float64
	for _, in := range ddes.Top.Insts {
		if in.Cell != nil && in.Cell.Kind == netlist.KindComb {
			combAfter += in.Cell.Area
		}
	}
	ratio := combAfter / combBefore
	if ratio < 1.7 || ratio > 6 {
		t.Fatalf("completion-detection comb area ratio %.2f outside the expected regime", ratio)
	}

	// Behaviour: full flow equivalence against the synchronous run.
	period := 5.0
	if v := flowEquivalent(t, dsync, ddes, res, period, 30, nil, 0); v.Registers < 500 {
		t.Fatalf("compared only %d registers", v.Registers)
	}
	ds, err := sim.New(ddes.Top, sim.Config{Corner: netlist.Worst})
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.NewDriver(ddes.Top, res.Reset, 0, nil).Start(ds); err != nil {
		t.Fatal(err)
	}
	if err := ds.Run(period * 60); err != nil {
		t.Fatal(err)
	}

	// Average-case behaviour: cycle intervals vary with the data (unlike
	// the fixed matched-delay version).
	times := ds.CaptureTimes["pc_r[0]/sl"]
	if len(times) < 12 {
		t.Fatal("too few cycles")
	}
	minI, maxI := 1e9, 0.0
	for k := 6; k < len(times); k++ {
		d := times[k] - times[k-1]
		if d < minI {
			minI = d
		}
		if d > maxI {
			maxI = d
		}
	}
	if maxI-minI < 0.05 {
		t.Fatalf("completion-detected cycle time not data-dependent: min %.3f max %.3f", minI, maxI)
	}
}
