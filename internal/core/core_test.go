package core

import (
	"context"
	"fmt"
	"testing"

	"desync/internal/netlist"
	"desync/internal/stdcells"
)

func hs() *netlist.Library { return stdcells.New(stdcells.HighSpeed) }

func TestCleanLogicRemovesBuffers(t *testing.T) {
	lib := hs()
	m := netlist.NewModule("m")
	m.AddPort("a", netlist.In)
	m.AddPort("z", netlist.Out)
	n1, n2 := m.AddNet("n1"), m.AddNet("n2")
	b1 := m.AddInst("b1", lib.MustCell("BUFX1"))
	m.MustConnect(b1, "A", m.Net("a"))
	m.MustConnect(b1, "Z", n1)
	b2 := m.AddInst("b2", lib.MustCell("BUFX2"))
	m.MustConnect(b2, "A", n1)
	m.MustConnect(b2, "Z", n2)
	g := m.AddInst("g", lib.MustCell("INVX1"))
	m.MustConnect(g, "A", n2)
	m.MustConnect(g, "Z", m.Net("z"))

	removed := CleanLogic(m)
	if removed != 2 {
		t.Fatalf("removed %d cells, want 2", removed)
	}
	if g.Conn("A") != m.Net("a") {
		t.Fatal("sink not rewired to source")
	}
	if errs := m.Check(); len(errs) > 0 {
		t.Fatalf("check: %v", errs)
	}
}

func TestCleanLogicCollapsesInverterPairs(t *testing.T) {
	lib := hs()
	m := netlist.NewModule("m")
	m.AddPort("a", netlist.In)
	m.AddPort("z", netlist.Out)
	n1, n2 := m.AddNet("n1"), m.AddNet("n2")
	i1 := m.AddInst("i1", lib.MustCell("INVX1"))
	m.MustConnect(i1, "A", m.Net("a"))
	m.MustConnect(i1, "Z", n1)
	i2 := m.AddInst("i2", lib.MustCell("INVX1"))
	m.MustConnect(i2, "A", n1)
	m.MustConnect(i2, "Z", n2)
	g := m.AddInst("g", lib.MustCell("AND2X1"))
	m.MustConnect(g, "A", n2)
	m.MustConnect(g, "B", m.Net("a"))
	m.MustConnect(g, "Z", m.Net("z"))

	removed := CleanLogic(m)
	if removed != 2 {
		t.Fatalf("removed %d cells, want 2", removed)
	}
	if g.Conn("A") != m.Net("a") {
		t.Fatal("pair not collapsed onto source")
	}
}

func TestCleanLogicKeepsLoneInverter(t *testing.T) {
	lib := hs()
	m := netlist.NewModule("m")
	m.AddPort("a", netlist.In)
	m.AddPort("z", netlist.Out)
	g := m.AddInst("g", lib.MustCell("INVX1"))
	m.MustConnect(g, "A", m.Net("a"))
	m.MustConnect(g, "Z", m.Net("z"))
	if removed := CleanLogic(m); removed != 0 {
		t.Fatalf("lone inverter removed (%d)", removed)
	}
}

// addFF wires a DFFRQX1 with reset and returns it.
func addFF(m *netlist.Module, lib *netlist.Library, name string, d *netlist.Net, grpHint int) *netlist.Inst {
	ff := m.AddInst(name, lib.MustCell("DFFRQX1"))
	m.MustConnect(ff, "D", d)
	m.MustConnect(ff, "CK", m.EnsureNet("clk"))
	m.MustConnect(ff, "RN", m.EnsureNet("rstn"))
	m.MustConnect(ff, "Q", m.AddNet(name+"_q"))
	_ = grpHint
	return ff
}

// Fig 3.3 shape: two independent clouds with their registers, plus an
// input-registering flip-flop, plus an FF->FF history chain.
func TestAutoGroupBasicShapes(t *testing.T) {
	lib := hs()
	m := netlist.NewModule("m")
	m.AddPort("clk", netlist.In)
	m.AddPort("rstn", netlist.In)
	m.AddPort("in1", netlist.In)
	m.AddPort("in2", netlist.In)

	// Input-registering FF (step 3 -> group 0).
	fin := addFF(m, lib, "fin", m.Net("in1"), 0)

	// Cloud 1: AND(in2, fin_q) -> f1.
	z1 := m.AddNet("z1")
	g1 := m.AddInst("g1", lib.MustCell("AND2X1"))
	m.MustConnect(g1, "A", m.Net("in2"))
	m.MustConnect(g1, "B", m.Net("fin_q"))
	m.MustConnect(g1, "Z", z1)
	f1 := addFF(m, lib, "f1", z1, 1)

	// Cloud 2: INV(f1_q) -> f2.
	z2 := m.AddNet("z2")
	g2 := m.AddInst("g2", lib.MustCell("INVX1"))
	m.MustConnect(g2, "A", m.Net("f1_q"))
	m.MustConnect(g2, "Z", z2)
	f2 := addFF(m, lib, "f2", z2, 2)

	// History chain: f2 -> f3 directly (step 2 joins f3 to f2's group).
	f3 := addFF(m, lib, "f3", m.Net("f2_q"), 2)
	_ = f3

	res := AutoGroup(m)
	if res.Groups != 2 {
		t.Fatalf("groups = %d, want 2", res.Groups)
	}
	if fin.Group != 0 {
		t.Fatalf("input FF group = %d, want 0", fin.Group)
	}
	if f1.Group == f2.Group {
		t.Fatal("independent clouds merged")
	}
	if g1.Group != f1.Group || g2.Group != f2.Group {
		t.Fatal("clouds separated from their registers")
	}
	if m.Inst("f3").Group != f2.Group {
		t.Fatal("FF->FF chain not joined to driver's group")
	}
}

// Fig 3.6: disconnected gates driving bits of one bus merge via the
// by-name heuristic.
func TestAutoGroupBusHeuristic(t *testing.T) {
	lib := hs()
	m := netlist.NewModule("m")
	m.AddPort("clk", netlist.In)
	m.AddPort("rstn", netlist.In)
	m.AddPort("a", netlist.In)
	m.AddPort("b", netlist.In)
	for i := 0; i < 2; i++ {
		z := m.AddNet(fmt.Sprintf("bus[%d]", i))
		g := m.AddInst(fmt.Sprintf("g%d", i), lib.MustCell("INVX1"))
		src := m.Net("a")
		if i == 1 {
			src = m.Net("b")
		}
		m.MustConnect(g, "A", src)
		m.MustConnect(g, "Z", z)
		addFF(m, lib, fmt.Sprintf("f%d", i), z, 0)
	}
	res := AutoGroup(m)
	if res.Groups != 1 {
		t.Fatalf("bus bits split into %d groups, want 1", res.Groups)
	}
	// Control: without bus naming the same structure splits.
	m2 := netlist.NewModule("m2")
	m2.AddPort("clk", netlist.In)
	m2.AddPort("rstn", netlist.In)
	m2.AddPort("a", netlist.In)
	m2.AddPort("b", netlist.In)
	for i := 0; i < 2; i++ {
		z := m2.AddNet(fmt.Sprintf("bus_%d", i))
		g := m2.AddInst(fmt.Sprintf("g%d", i), lib.MustCell("INVX1"))
		src := m2.Net("a")
		if i == 1 {
			src = m2.Net("b")
		}
		m2.MustConnect(g, "A", src)
		m2.MustConnect(g, "Z", z)
		addFF(m2, lib, fmt.Sprintf("f%d", i), z, 0)
	}
	if res2 := AutoGroup(m2); res2.Groups != 2 {
		t.Fatalf("collapsed bus names grouped into %d, want 2", res2.Groups)
	}
}

// §3.2.2 "False Paths": a global signal wired into every cloud would merge
// all regions unless marked.
func TestAutoGroupFalsePaths(t *testing.T) {
	lib := hs()
	build := func() *netlist.Module {
		m := netlist.NewModule("m")
		m.AddPort("clk", netlist.In)
		m.AddPort("rstn", netlist.In)
		m.AddPort("mode", netlist.In)
		// A shared driver cell on the mode signal.
		shared := m.AddNet("modeb")
		sb := m.AddInst("sb", lib.MustCell("INVX1"))
		m.MustConnect(sb, "A", m.Net("mode"))
		m.MustConnect(sb, "Z", shared)
		for i := 0; i < 2; i++ {
			z := m.AddNet(fmt.Sprintf("z%d", i))
			g := m.AddInst(fmt.Sprintf("g%d", i), lib.MustCell("AND2X1"))
			m.MustConnect(g, "A", m.EnsureNet(fmt.Sprintf("f%d_q", i)))
			m.MustConnect(g, "B", shared)
			m.MustConnect(g, "Z", z)
			ff := m.AddInst(fmt.Sprintf("f%d", i), lib.MustCell("DFFRQX1"))
			m.MustConnect(ff, "D", z)
			m.MustConnect(ff, "CK", m.Net("clk"))
			m.MustConnect(ff, "RN", m.Net("rstn"))
			m.MustConnect(ff, "Q", m.Net(fmt.Sprintf("f%d_q", i)))
		}
		return m
	}
	m := build()
	if res := AutoGroup(m); res.Groups != 1 {
		t.Fatalf("without marking: %d groups, want 1 (merged)", res.Groups)
	}
	m = build()
	if missing := MarkFalsePaths(m, []string{"modeb"}); len(missing) != 0 {
		t.Fatalf("missing: %v", missing)
	}
	if res := AutoGroup(m); res.Groups != 2 {
		t.Fatalf("with false path marked: %d groups, want 2", res.Groups)
	}
	if missing := MarkFalsePaths(m, []string{"nope"}); len(missing) != 1 {
		t.Fatal("unknown net not reported")
	}
}

func TestSubstituteFlipFlopsStructure(t *testing.T) {
	lib := hs()
	m := netlist.NewModule("m")
	m.AddPort("clk", netlist.In)
	m.AddPort("rstn", netlist.In)
	m.AddPort("d", netlist.In)
	m.AddPort("si", netlist.In)
	m.AddPort("se", netlist.In)
	m.AddPort("q", netlist.Out)

	ff := m.AddInst("f_plain", lib.MustCell("DFFQX1"))
	m.MustConnect(ff, "D", m.Net("d"))
	m.MustConnect(ff, "CK", m.Net("clk"))
	m.MustConnect(ff, "Q", m.Net("q"))
	m.MustConnect(ff, "QN", m.AddNet("qn_unused"))
	ff.Group = 1

	sc := m.AddInst("f_scan", lib.MustCell("SDFFRQX1"))
	m.MustConnect(sc, "D", m.Net("d"))
	m.MustConnect(sc, "SI", m.Net("si"))
	m.MustConnect(sc, "SE", m.Net("se"))
	m.MustConnect(sc, "CK", m.Net("clk"))
	m.MustConnect(sc, "RN", m.Net("rstn"))
	m.MustConnect(sc, "Q", m.AddNet("q2"))
	sc.Group = 1

	d := &netlist.Design{Name: "m", Top: m, Lib: lib, Modules: map[string]*netlist.Module{"m": m}}
	res, err := SubstituteFlipFlops(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.FFs != 2 {
		t.Fatalf("substituted %d FFs, want 2", res.FFs)
	}
	if m.Inst("f_plain") != nil {
		t.Fatal("flip-flop instance still present")
	}
	if m.Inst("f_plain/ml") == nil || m.Inst("f_plain/sl") == nil {
		t.Fatal("latch pair missing")
	}
	if m.Inst("f_plain/ml").Cell.Name != "LATQX1" {
		t.Fatal("plain FF should use the plain latch")
	}
	if m.Inst("f_scan/ml").Cell.Name != "LATRQX1" {
		t.Fatal("async-reset FF should use the reset latch")
	}
	if m.Inst("f_scan/scanmux") == nil {
		t.Fatal("scan multiplexer missing (Fig 3.1a)")
	}
	if _, ok := res.Enables[1]; !ok {
		t.Fatal("enable nets not created")
	}
	if m.Net("clk") != nil || m.Port("clk") != nil {
		t.Fatal("clock network not removed")
	}
	// The slave drives the original Q net.
	if m.Net("q").Driver.Inst != m.Inst("f_plain/sl") {
		t.Fatal("slave does not drive the original output")
	}
	// Latch pairs and helper gates are tagged for area accounting.
	for _, name := range []string{"f_plain/ml", "f_scan/scanmux"} {
		if m.Inst(name).Origin != "ffsub" {
			t.Fatalf("%s not tagged ffsub", name)
		}
	}
}

// buildPipelineRing makes a 3-stage 4-bit ring: A = inc(C), B = ~A, C = B
// with per-stage clouds and bused net names, flip-flops with async reset.
func buildPipelineRing(lib *netlist.Library) *netlist.Design {
	d := netlist.NewDesign("ring3", lib)
	m := d.Top
	m.AddPort("clk", netlist.In)
	m.AddPort("rstn", netlist.In)
	m.AddPort("out[0]", netlist.Out)
	m.AddPort("out[1]", netlist.Out)
	m.AddPort("out[2]", netlist.Out)
	m.AddPort("out[3]", netlist.Out)

	q := func(stage string, i int) *netlist.Net { return m.EnsureNet(fmt.Sprintf("%s_q[%d]", stage, i)) }
	mkFF := func(stage string, i int, dnet *netlist.Net) {
		ff := m.AddInst(fmt.Sprintf("%s_r[%d]", stage, i), lib.MustCell("DFFRQX1"))
		m.MustConnect(ff, "D", dnet)
		m.MustConnect(ff, "CK", m.Net("clk"))
		m.MustConnect(ff, "RN", m.Net("rstn"))
		m.MustConnect(ff, "Q", q(stage, i))
	}

	// Stage A cloud: increment C's output. s0=!c0; k1=c0; s1=c1^k1;
	// k2=c1&k1; s2=c2^k2; k3=c2&k2; s3=c3^k3.
	ad := func(i int) *netlist.Net { return m.EnsureNet(fmt.Sprintf("ad[%d]", i)) }
	inv := m.AddInst("a_inc0", lib.MustCell("INVX1"))
	m.MustConnect(inv, "A", q("c", 0))
	m.MustConnect(inv, "Z", ad(0))
	carry := q("c", 0)
	for i := 1; i < 4; i++ {
		x := m.AddInst(fmt.Sprintf("a_incx%d", i), lib.MustCell("XOR2X1"))
		m.MustConnect(x, "A", q("c", i))
		m.MustConnect(x, "B", carry)
		m.MustConnect(x, "Z", ad(i))
		if i < 3 {
			nc := m.AddNet(fmt.Sprintf("ak[%d]", i))
			a := m.AddInst(fmt.Sprintf("a_inca%d", i), lib.MustCell("AND2X1"))
			m.MustConnect(a, "A", q("c", i))
			m.MustConnect(a, "B", carry)
			m.MustConnect(a, "Z", nc)
			carry = nc
		}
	}
	for i := 0; i < 4; i++ {
		mkFF("a", i, ad(i))
	}
	// Stage B cloud: bitwise NOT of A (independent INVs joined by the bus
	// heuristic).
	for i := 0; i < 4; i++ {
		bd := m.AddNet(fmt.Sprintf("bd[%d]", i))
		g := m.AddInst(fmt.Sprintf("b_inv%d", i), lib.MustCell("INVX1"))
		m.MustConnect(g, "A", q("a", i))
		m.MustConnect(g, "Z", bd)
		mkFF("b", i, bd)
	}
	// Stage C cloud: XOR adjacent bits of B.
	for i := 0; i < 4; i++ {
		cd := m.AddNet(fmt.Sprintf("cd[%d]", i))
		g := m.AddInst(fmt.Sprintf("c_x%d", i), lib.MustCell("XOR2X1"))
		m.MustConnect(g, "A", q("b", i))
		m.MustConnect(g, "B", q("b", (i+1)%4))
		m.MustConnect(g, "Z", cd)
		mkFF("c", i, cd)
	}
	// Observe stage C.
	for i := 0; i < 4; i++ {
		b := m.AddInst(fmt.Sprintf("obuf%d", i), lib.MustCell("BUFX1"))
		m.MustConnect(b, "A", q("c", i))
		m.MustConnect(b, "Z", m.Net(fmt.Sprintf("out[%d]", i)))
	}
	return d
}

func TestBuildDDGPipelineRing(t *testing.T) {
	lib := hs()
	d := buildPipelineRing(lib)
	CleanLogic(d.Top)
	res := AutoGroup(d.Top)
	if res.Groups != 3 {
		t.Fatalf("groups = %d, want 3 (one per stage)", res.Groups)
	}
	if _, err := SubstituteFlipFlops(d); err != nil {
		t.Fatal(err)
	}
	ddg := BuildDDG(d.Top)
	if len(ddg.Nodes) != 3 {
		t.Fatalf("DDG nodes = %v, want 3", ddg.Nodes)
	}
	// Ring: each node has exactly one pred and one succ, no self edges.
	for _, n := range ddg.Nodes {
		if len(ddg.Succs[n]) != 1 || len(ddg.Preds[n]) != 1 {
			t.Fatalf("node %d: succs=%v preds=%v, want ring", n, ddg.Succs[n], ddg.Preds[n])
		}
		if ddg.Succs[n][0] == n {
			t.Fatalf("unexpected self edge on %d", n)
		}
	}
}

// The headline property (§2.1): the desynchronized pipeline produces, at
// every sequential element, exactly the data sequence of its synchronous
// counterpart.
func TestDesynchronizeFlowEquivalence(t *testing.T) {
	lib := hs()
	period := 3.0
	ddes := buildPipelineRing(lib)
	res, err := Convert(context.Background(), ddes, Options{Period: period})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grouping.Groups != 3 {
		t.Fatalf("groups = %d, want 3", res.Grouping.Groups)
	}
	if v := flowEquivalent(t, buildPipelineRing(lib), ddes, res, period, 14, nil, 0); v.Registers != 12 {
		t.Fatalf("compared %d registers, want 12", v.Registers)
	}
}

func TestDesynchronizedNetlistExports(t *testing.T) {
	lib := hs()
	d := buildPipelineRing(lib)
	res, err := Convert(context.Background(), d, Options{Period: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Constraints.Disabled) == 0 || len(res.Constraints.SizeOnly) == 0 {
		t.Fatal("constraints missing")
	}
	if len(res.Constraints.Clocks) != 2 {
		t.Fatalf("want ClkM/ClkS, got %d clocks", len(res.Constraints.Clocks))
	}
	out := res.Constraints.Write()
	if out == "" {
		t.Fatal("empty SDC")
	}
	for g, lv := range res.DelayLevels {
		if lv < 1 {
			t.Fatalf("region %d: delay levels %d", g, lv)
		}
	}
}

func TestSimplifyNames(t *testing.T) {
	lib := hs()
	m := netlist.NewModule("m")
	n := m.AddNet("u1/weird.name[3]")
	_ = n
	m.AddNet("ok_name")
	if renamed := SimplifyNames(m); renamed != 1 {
		t.Fatalf("renamed %d, want 1", renamed)
	}
	if m.Net("u1_weird_name[3]") == nil {
		t.Fatal("simplified name missing; bus suffix must be preserved")
	}
	_ = lib
}
