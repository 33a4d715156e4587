package pnr

import (
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/stdcells"
)

// §6: region-aware placement keeps each matched delay element near the
// logic it tracks; measure the element-to-region spread with and without.
func TestRegionAwarePlacementTightensDelayElements(t *testing.T) {
	build := func() *netlist.Design {
		lib := stdcells.New(stdcells.HighSpeed)
		d, err := designs.BuildDLX(lib, designs.TestProgram())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Convert(context.Background(), d, core.Options{Period: 5}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	spread := func(regionAware bool) float64 {
		d := build()
		opts := DefaultOptions()
		opts.Utilization = 0.91
		opts.RegionAware = regionAware
		lay, err := PlaceAndRoute(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		sp := RegionSpread(lay, d.Top)
		if len(sp) == 0 {
			t.Fatal("no delay-element spread measured")
		}
		total := 0.0
		for _, v := range sp {
			total += v
		}
		return total / float64(len(sp))
	}
	base := spread(false)
	aware := spread(true)
	if aware >= base {
		t.Fatalf("region-aware placement did not tighten delay elements: %.1f vs %.1f µm", aware, base)
	}
	t.Logf("mean delay-element distance to region centroid: %.1f µm -> %.1f µm", base, aware)
}
