package core

import (
	"context"
	"fmt"
	"testing"

	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/pnr"
)

// §6: post-layout ECO calibration of the delay elements. We place & route
// the desynchronized DLX, then artificially degrade one region's cloud
// wires so its element no longer covers, and verify the ECO both detects
// and repairs the shortfall.
func TestECOCalibration(t *testing.T) {
	lib := hs()
	d, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Convert(context.Background(), d, Options{Period: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := pnr.DefaultOptions()
	opts.Utilization = 0.91
	if _, err := pnr.PlaceAndRoute(d, opts); err != nil {
		t.Fatal(err)
	}

	// With the 1.15 sizing margin, the freshly routed design must pass the
	// check outright.
	rows, err := ECOCalibrate(context.Background(), d, res, 1.15, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 calibrated regions, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.Covered {
			t.Fatalf("region %d uncovered right after layout: element %.3f vs budget %.3f",
				r.Region, r.ElementDelay, r.Budget)
		}
		if r.ElementDelay <= 0 || r.Budget <= 0 {
			t.Fatalf("degenerate measurement: %+v", r)
		}
	}

	// Degrade the MEM region's cloud: inflate wire delays on nets feeding
	// its master latches (as if routing detoured them).
	victim := rows[0]
	for _, r := range rows {
		if r.Budget > victim.Budget {
			victim = r
		}
	}
	degraded := 0
	for _, in := range d.Top.Insts {
		if in.Group != victim.Region || in.Cell == nil || in.Cell.Kind != netlist.KindLatch {
			continue
		}
		if n := in.Conn("D"); n != nil {
			n.Wire = netlist.Delay{Best: 0.5, Worst: 1.5}
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("nothing degraded")
	}

	// Detection pass: the victim region must now be uncovered.
	rows2, err := ECOCalibrate(context.Background(), d, res, 1.15, false)
	if err != nil {
		t.Fatal(err)
	}
	var v2 *ECORow
	for i := range rows2 {
		if rows2[i].Region == victim.Region {
			v2 = &rows2[i]
		}
	}
	if v2 == nil || v2.Covered {
		t.Fatalf("degradation not detected: %+v", v2)
	}

	// Repair pass: splice levels until covered again.
	rows3, err := ECOCalibrate(context.Background(), d, res, 1.15, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows3 {
		if r.Region == victim.Region {
			if !r.Covered {
				t.Fatalf("ECO failed to repair region %d: %+v", r.Region, r)
			}
			if r.AddedLevels == 0 {
				t.Fatal("repair reported no added levels")
			}
			fmt.Printf("ECO added %d levels to region %d (element %.3f vs budget %.3f)\n",
				r.AddedLevels, r.Region, r.ElementDelay, r.Budget)
		}
	}
	if errs := d.Top.Check(); len(errs) > 0 {
		t.Fatalf("netlist broken after ECO: %v", errs[0])
	}
}
