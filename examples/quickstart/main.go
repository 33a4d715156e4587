// Quickstart: desynchronize a small synchronous pipeline and watch flow
// equivalence hold — every register of the clockless version captures the
// exact data sequence of the clocked one.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"desync/internal/core"
	"desync/internal/faults"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// A two-stage synchronous pipeline: stage A increments a 4-bit value fed
// back from stage B; stage B inverts A's output.
const src = `
module pipe (clk, rstn, out);
  input clk, rstn;
  output [3:0] out;
  wire [3:0] aq, bq, ad, bd;

  // Stage A cloud: increment bq.
  INVX1  a0 (.A(bq[0]), .Z(ad[0]));
  XOR2X1 a1 (.A(bq[1]), .B(bq[0]), .Z(ad[1]));
  AND2X1 c1 (.A(bq[1]), .B(bq[0]), .Z(k1));
  XOR2X1 a2 (.A(bq[2]), .B(k1), .Z(ad[2]));
  AND2X1 c2 (.A(bq[2]), .B(k1), .Z(k2));
  XOR2X1 a3 (.A(bq[3]), .B(k2), .Z(ad[3]));
  DFFRQX1 ra0 (.D(ad[0]), .CK(clk), .RN(rstn), .Q(aq[0]));
  DFFRQX1 ra1 (.D(ad[1]), .CK(clk), .RN(rstn), .Q(aq[1]));
  DFFRQX1 ra2 (.D(ad[2]), .CK(clk), .RN(rstn), .Q(aq[2]));
  DFFRQX1 ra3 (.D(ad[3]), .CK(clk), .RN(rstn), .Q(aq[3]));

  // Stage B cloud: bitwise NOT of aq.
  INVX1 b0 (.A(aq[0]), .Z(bd[0]));
  INVX1 b1 (.A(aq[1]), .Z(bd[1]));
  INVX1 b2 (.A(aq[2]), .Z(bd[2]));
  INVX1 b3 (.A(aq[3]), .Z(bd[3]));
  DFFRQX1 rb0 (.D(bd[0]), .CK(clk), .RN(rstn), .Q(bq[0]));
  DFFRQX1 rb1 (.D(bd[1]), .CK(clk), .RN(rstn), .Q(bq[1]));
  DFFRQX1 rb2 (.D(bd[2]), .CK(clk), .RN(rstn), .Q(bq[2]));
  DFFRQX1 rb3 (.D(bd[3]), .CK(clk), .RN(rstn), .Q(bq[3]));

  assign out = bq;
endmodule
`

func main() {
	lib := stdcells.New(stdcells.HighSpeed)
	ref, err := verilog.Read(src, lib, "")
	if err != nil {
		log.Fatal(err)
	}

	// Desynchronize a fresh copy of the same netlist.
	dd, err := verilog.Read(src, lib, "")
	if err != nil {
		log.Fatal(err)
	}
	period := 2.0
	res, err := core.Convert(context.Background(), dd, core.Options{Period: period})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("desynchronized: %d regions, delay elements %v levels\n",
		res.Grouping.Groups, res.DelayLevels)

	// Simulate both through the flow's oracle: handshakes replace the clock,
	// and every register's captures are compared with its two latches'.
	v, err := faults.Oracle(ref.Top, dd.Top, res.Reset, netlist.Worst, period, 10, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compared %d registers over %d latch captures\n", v.Registers, v.Captures)
	if v.Counterexample != nil {
		log.Fatalf("FLOW EQUIVALENCE BROKEN: %+v", *v.Counterexample)
	}
	fmt.Println("flow equivalence holds: same data, no clock.")
}
