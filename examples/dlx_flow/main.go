// dlx_flow runs the paper's full experimental procedure (Fig 5.1) on the
// DLX case study: generate the post-synthesis netlist, desynchronize one
// branch, place & route both, compare area, then simulate both versions
// running the same program and compare cycle time and power.
//
// Run with: go run ./examples/dlx_flow
package main

import (
	"fmt"
	"log"

	"desync/internal/expt"
	"desync/internal/netlist"
)

func main() {
	fmt.Println("== Building and implementing both DLX branches ==")
	tbl, flow, err := expt.Table51()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tbl.Render())
	fmt.Printf("regions found automatically: %d (the 4 pipeline stages)\n",
		flow.Result.Grouping.Groups)
	for _, g := range flow.Result.DDG.Nodes {
		fmt.Printf("  region %d -> %v, comb %.3f ns, delay element %d levels\n",
			g, flow.Result.DDG.Succs[g],
			flow.Result.RegionDelays[g].CombMax, flow.Result.DelayLevels[g])
	}

	fmt.Println("\n== Timing and power at both corners ==")
	fmt.Printf("%-22s %12s %12s %12s %9s\n", "version", "corner", "period (ns)", "power (mW)", "correct")
	for _, corner := range []netlist.Corner{netlist.Best, netlist.Worst} {
		p := tbl.BestPeriod
		if corner == netlist.Worst {
			p = flow.Period
		}
		sr, err := expt.MeasureDLX(flow, corner, p, 30)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %12s %12.3f %12.3f %9v\n", "DLX (synchronous)", corner,
			sr.EffectivePeriod, sr.DynamicMW+sr.LeakageMW, sr.Correct)
		dr, err := expt.MeasureDDLX(flow, corner, 1, -1, 30)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %12s %12.3f %12.3f %9v\n", "DDLX (desynchronized)", corner,
			dr.EffectivePeriod, dr.DynamicMW+dr.LeakageMW, dr.Correct)
	}
	fmt.Println("\nThe desynchronized version has no clock: its period is the")
	fmt.Println("measured self-timed handshake rate, which scales with the corner")
	fmt.Println("exactly like the logic it controls.")
}
