package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/verilog"
)

// The tool-boundary round trip the CLI exercises: generated DLX → Verilog
// text → re-import → desynchronize → Verilog text → re-import → simulate,
// and the result is still flow-equivalent to the original synchronous
// netlist. This covers the standard-format interoperability claim of §4.4
// ("drdesync uses standard file formats and thus may be embedded in
// virtually any modern industrial EDA flow").
func TestVerilogRoundTripFlowEquivalence(t *testing.T) {
	lib := hs()
	prog := designs.TestProgram()

	orig, err := designs.BuildDLX(lib, prog)
	if err != nil {
		t.Fatal(err)
	}
	text := verilog.Write(orig)

	// Synchronous reference from the re-imported netlist.
	dsync, err := verilog.Read(text, lib, "")
	if err != nil {
		t.Fatal(err)
	}
	period := 5.0

	// Desynchronize a second import, export, re-import, simulate.
	dwork, err := verilog.Read(text, lib, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Convert(context.Background(), dwork, Options{Period: period})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grouping.Groups != 4 {
		t.Fatalf("groups after round trip = %d, want 4", res.Grouping.Groups)
	}
	dtext := verilog.Write(dwork)
	dfinal, err := verilog.Read(dtext, lib, "")
	if err != nil {
		t.Fatalf("desynchronized netlist does not re-import: %v", err)
	}
	if errs := dfinal.Top.Check(); len(errs) > 0 {
		t.Fatalf("re-imported netlist broken: %v", errs[0])
	}
	if v := flowEquivalent(t, dsync, dfinal, res, period, 25, nil, 0); v.Registers < 500 {
		t.Fatalf("compared only %d registers", v.Registers)
	}
}

// §3.2.2's manual path: a two-level netlist whose top contains only
// flattened submodules treated as the regions.
func TestManualGroupsFromHierarchy(t *testing.T) {
	lib := hs()
	src := `
module stage_a (ck, rstn, in, out);
  input ck, rstn;
  input [1:0] in;
  output [1:0] out;
  wire [1:0] d;
  INVX1 g0 (.A(in[0]), .Z(d[0]));
  INVX1 g1 (.A(in[1]), .Z(d[1]));
  DFFRQX1 r0 (.D(d[0]), .CK(ck), .RN(rstn), .Q(out[0]));
  DFFRQX1 r1 (.D(d[1]), .CK(ck), .RN(rstn), .Q(out[1]));
endmodule

module stage_b (ck, rstn, in, out);
  input ck, rstn;
  input [1:0] in;
  output [1:0] out;
  wire [1:0] d;
  XOR2X1 g0 (.A(in[0]), .B(in[1]), .Z(d[0]));
  XOR2X1 g1 (.A(in[1]), .B(in[0]), .Z(d[1]));
  DFFRQX1 r0 (.D(d[0]), .CK(ck), .RN(rstn), .Q(out[0]));
  DFFRQX1 r1 (.D(d[1]), .CK(ck), .RN(rstn), .Q(out[1]));
endmodule

module top (ck, rstn, q);
  input ck, rstn;
  output [1:0] q;
  wire [1:0] x;
  stage_a sa (.ck(ck), .rstn(rstn), .in(q), .out(x));
  stage_b sb (.ck(ck), .rstn(rstn), .in(x), .out(q));
endmodule
`
	d, err := verilog.Read(src, lib, "top")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Convert(context.Background(), d, Options{Period: 2, ManualGroups: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grouping.Groups != 2 {
		t.Fatalf("hierarchy-derived regions = %d, want 2", res.Grouping.Groups)
	}
	// The two regions form a ring in the DDG.
	for _, g := range res.DDG.Nodes {
		if len(res.DDG.Succs[g]) != 1 {
			t.Fatalf("region %d succs = %v", g, res.DDG.Succs[g])
		}
	}
	// And it runs, flow-equivalent to the flattened synchronous netlist.
	ref, err := verilog.Read(src, lib, "top")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Flatten(false); err != nil {
		t.Fatal(err)
	}
	if v := flowEquivalent(t, ref, d, res, 2, 16, nil, 0); v.Registers != 4 {
		t.Fatalf("compared %d registers, want 4", v.Registers)
	}
}

// §6 lists multiple clock domains as future work; the tool must refuse them
// loudly rather than silently merging unrelated timing domains.
func TestMultipleClocksRejected(t *testing.T) {
	lib := hs()
	m := netlist.NewModule("m")
	m.AddPort("ck1", netlist.In)
	m.AddPort("ck2", netlist.In)
	m.AddPort("d", netlist.In)
	for i, ck := range []string{"ck1", "ck2"} {
		ff := m.AddInst(fmt.Sprintf("f%d", i), lib.MustCell("DFFQX1"))
		m.MustConnect(ff, "D", m.Net("d"))
		m.MustConnect(ff, "CK", m.Net(ck))
		m.MustConnect(ff, "Q", m.AddNet(fmt.Sprintf("q%d", i)))
		m.MustConnect(ff, "QN", m.AddNet(fmt.Sprintf("qn%d", i)))
	}
	d := &netlist.Design{Name: "m", Top: m, Lib: lib, Modules: map[string]*netlist.Module{"m": m}}
	_, err := Convert(context.Background(), d, Options{Period: 2})
	if err == nil {
		t.Fatal("expected multiple-clock rejection")
	}
	// The refusal must be actionable: name both offending clock nets and
	// state the single-clock restriction.
	for _, want := range []string{"ck1", "ck2", "single-clock"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("rejection %q does not mention %q", err, want)
		}
	}
	if StageOf(err) != StageImport {
		t.Fatalf("StageOf = %q, want %q", StageOf(err), StageImport)
	}
}

// TestClockFeedingOutputPortConverts: a clock net that also drives an
// output port (assign clk_out = clk) is not dead after substitution — the
// port still reads it — so the net and its input port stay, and the
// converted module validates with clk_out still bound to the clock.
func TestClockFeedingOutputPortConverts(t *testing.T) {
	src := `module top (clk, rstn, d, q, clk_out);
  input clk, rstn, d;
  output q, clk_out;
  wire q0;
  DFFRQX1 r0 (.D(d), .CK(clk), .RN(rstn), .Q(q0));
  DFFRQX1 r1 (.D(q0), .CK(clk), .RN(rstn), .Q(q));
  assign clk_out = clk;
endmodule
`
	d, err := verilog.Read(src, hs(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range d.Top.Insts {
		in.Group = 1
	}
	res, err := Convert(context.Background(), d, Options{Period: 5, ManualGroups: true})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if len(res.Substitution.ClockNets) != 0 {
		t.Fatalf("removed clock nets %v although clk_out still reads the clock", res.Substitution.ClockNets)
	}
	clk, out := d.Top.Port("clk"), d.Top.Port("clk_out")
	if clk == nil || out == nil {
		t.Fatalf("ports after conversion: clk %v, clk_out %v", clk, out)
	}
	if clk.Net == nil || clk.Net != out.Net || d.Top.Net(clk.Net.Name) != clk.Net {
		t.Fatalf("clk_out no longer reads the live clock net: clk %v, clk_out %v", clk.Net, out.Net)
	}
	if !strings.Contains(verilog.Write(d), "assign clk_out = clk;") {
		t.Fatal("exported netlist lost assign clk_out = clk")
	}
}
