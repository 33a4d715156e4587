// completion demonstrates §2.4.4's alternative to matched delay elements:
// dual-rail completion detection. The desynchronized DLX is built both
// ways and simulated; the completion-detected version's cycle time varies
// with the data (average-case operation), while the matched-delay version
// runs at a fixed, worst-case-plus-margin rate.
//
// Run with: go run ./examples/completion
package main

import (
	"fmt"
	"log"

	"desync/internal/core"
	"desync/internal/expt"
	"desync/internal/netlist"
)

func main() {
	fmt.Println("== Matched delay elements (the paper's choice) ==")
	fd, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		log.Fatal(err)
	}
	rd, err := expt.MeasureDDLX(fd, netlist.Worst, 1, -1, 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("effective period: %.3f ns (fixed; sized for the worst case)\n", rd.EffectivePeriod)
	fmt.Printf("flow equivalent: %v\n\n", rd.Correct)

	fmt.Println("== Completion detection (§2.4.4 alternative) ==")
	fc, err := expt.RunFlow("dlx", expt.FlowConfig{Mode: core.ModeCompletion})
	if err != nil {
		log.Fatal(err)
	}
	rc, err := expt.MeasureDDLX(fc, netlist.Worst, 1, -1, 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("effective period: %.3f ns (average over data-dependent cycles)\n", rc.EffectivePeriod)
	fmt.Printf("flow equivalent: %v\n", rc.Correct)
	fmt.Printf("completion-network cells: %d (the ~2x combinational cost the paper cites)\n\n",
		fc.Result.Insert.CompletionCells)

	speedup := rd.EffectivePeriod / rc.EffectivePeriod
	fmt.Printf("average-case speedup over matched delays: %.2fx\n", speedup)
	fmt.Println("\nThe trade: completion detection tracks the actual data (carry")
	fmt.Println("chains that don't ripple complete early), where delay elements")
	fmt.Println("must always budget for the critical path — at roughly double")
	fmt.Println("the combinational area (§2.4.4).")
}
