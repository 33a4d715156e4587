package ctrlnet_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/mga"
	"desync/internal/netlist"
	"desync/internal/stdcells"
)

// Region-DDG edge cases the DLX fixture cannot exercise: self-loop
// regions (a register bank computing on its own output), multiple
// disconnected SCCs in one module, and a drained (token-free) handshake
// cycle — the derivation must stay structural on all three, and the mga
// verdicts built on it must match.

// addAccumulator adds one 2-bit self-feeding register stage named prefix
// to the module: each bit XORs the bank's own outputs, so the stage's only
// data dependency is itself and AutoGroup gives it a self-loop DDG node.
func addAccumulator(m *netlist.Module, lib *netlist.Library, prefix string) {
	for i := 0; i < 2; i++ {
		q := m.EnsureNet(fmt.Sprintf("%s_q[%d]", prefix, i))
		dn := m.AddNet(fmt.Sprintf("%sd[%d]", prefix, i))
		g := m.AddInst(fmt.Sprintf("%s_x%d", prefix, i), lib.MustCell("XOR2X1"))
		m.MustConnect(g, "A", q)
		m.MustConnect(g, "B", m.EnsureNet(fmt.Sprintf("%s_q[%d]", prefix, (i+1)%2)))
		m.MustConnect(g, "Z", dn)
		ff := m.AddInst(fmt.Sprintf("%s_r[%d]", prefix, i), lib.MustCell("DFFRQX1"))
		m.MustConnect(ff, "D", dn)
		m.MustConnect(ff, "CK", m.Net("clk"))
		m.MustConnect(ff, "RN", m.Net("rstn"))
		m.MustConnect(ff, "Q", q)
		b := m.AddInst(fmt.Sprintf("%s_ob%d", prefix, i), lib.MustCell("BUFX1"))
		m.MustConnect(b, "A", q)
		m.MustConnect(b, "Z", m.Net(fmt.Sprintf("%s_out[%d]", prefix, i)))
	}
}

func buildAccumulators(prefixes ...string) *netlist.Design {
	lib := stdcells.New(stdcells.HighSpeed)
	d := netlist.NewDesign("acc", lib)
	m := d.Top
	m.AddPort("clk", netlist.In)
	m.AddPort("rstn", netlist.In)
	for _, p := range prefixes {
		m.AddPort(p+"_out[0]", netlist.Out)
		m.AddPort(p+"_out[1]", netlist.Out)
	}
	for _, p := range prefixes {
		addAccumulator(m, lib, p)
	}
	return d
}

func desync(t *testing.T, d *netlist.Design) *core.Result {
	t.Helper()
	res, err := core.Convert(context.Background(), d, core.Options{Period: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeriveSelfLoopRegion(t *testing.T) {
	d := buildAccumulators("a")
	res := desync(t, d)
	n := ctrlnet.DeriveFresh(d.Top)
	if len(n.Regions) != 1 {
		t.Fatalf("regions = %v, want one self-loop region", n.Regions)
	}
	g := n.Regions[0]
	// The region's only data dependency is itself: the derived region graph
	// must carry the self edge, matching the flow's DDG.
	if !reflect.DeepEqual(n.Succs[g], []int{g}) {
		t.Fatalf("succs[%d] = %v, want the self edge", g, n.Succs[g])
	}
	if !reflect.DeepEqual(n.Succs[g], res.DDG.Succs[g]) {
		t.Fatalf("derived succs %v disagree with flow DDG %v", n.Succs[g], res.DDG.Succs[g])
	}
	if c := n.Controllers[g]; c == nil || !c.Complete() {
		t.Fatalf("self-loop region derived an incomplete controller")
	}
	if len(n.EnvRequests) != 0 || len(n.EnvAcks) != 0 {
		t.Fatalf("closed self-loop exposed environment ports req=%v ack=%v", n.EnvRequests, n.EnvAcks)
	}
	// The self-loop marked graph is the smallest live network: one request
	// channel G→G plus the controller-internal places.
	rep, err := mga.Analyze(d.Top, n, mga.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Live || !rep.Safe {
		t.Fatalf("self-loop region: live=%v safe=%v, want both", rep.Live, rep.Safe)
	}
	if rep.PeriodNs <= 0 {
		t.Fatalf("self-loop region has a cycle, so a period bound must exist; got %v", rep.PeriodNs)
	}
}

func TestDeriveMultipleSCCs(t *testing.T) {
	// Two accumulators with no data path between them: two singleton SCCs
	// in one module, each with its own self edge and controller.
	d := buildAccumulators("a", "b")
	res := desync(t, d)
	n := ctrlnet.DeriveFresh(d.Top)
	if len(n.Regions) != 2 {
		t.Fatalf("regions = %v, want two disconnected regions", n.Regions)
	}
	if !sort.IntsAreSorted(n.Regions) {
		t.Fatalf("regions %v not sorted", n.Regions)
	}
	for _, g := range n.Regions {
		if !reflect.DeepEqual(n.Succs[g], []int{g}) {
			t.Errorf("region %d: succs = %v, want only the self edge (no cross-SCC leakage)", g, n.Succs[g])
		}
		if !reflect.DeepEqual(n.Succs[g], res.DDG.Succs[g]) {
			t.Errorf("region %d: derived succs %v disagree with flow DDG %v", g, n.Succs[g], res.DDG.Succs[g])
		}
		if c := n.Controllers[g]; c == nil || !c.Complete() {
			t.Errorf("region %d: incomplete controller", g)
		}
	}
	rep, err := mga.Analyze(d.Top, n, mga.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regions != 2 || !rep.Live || !rep.Safe {
		t.Fatalf("two-SCC module: regions=%d live=%v safe=%v", rep.Regions, rep.Live, rep.Safe)
	}
	// Each SCC contributes its own local bottleneck row.
	if len(rep.PerRegion) != 2 {
		t.Fatalf("per-region rows = %v, want one per SCC", rep.PerRegion)
	}
}

func TestDeriveTokenFreeCycleFixture(t *testing.T) {
	// Invert the master latch-enable's reset phase of the self-loop region
	// (a construction bug: master resets opaque like a slave). Both banks
	// start closed, so the region's handshake cycle holds no token and can
	// never fire. The derivation is structural and must still recover the
	// region and its self edge — catching the drained cycle is mga's job,
	// on top of the still-correct IR.
	d := buildAccumulators("a")
	desync(t, d)
	g := ctrlnet.DeriveFresh(d.Top).Regions[0]
	mg := d.Top.Inst(fmt.Sprintf("G%d_Mctrl/g", g))
	if mg == nil {
		t.Fatal("controller g cell not found")
	}
	mg.Cell = d.Lib.MustCell("CGSX1")

	n := ctrlnet.DeriveFresh(d.Top)
	if len(n.Regions) != 1 || !reflect.DeepEqual(n.Succs[g], []int{g}) {
		t.Fatalf("tampered fixture changed the derived structure: regions=%v succs=%v",
			n.Regions, n.Succs[g])
	}
	if c := n.Controllers[g]; c == nil || !c.Complete() {
		t.Fatal("tampered fixture lost the controller")
	}
	rep, err := mga.Analyze(d.Top, n, mga.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live {
		t.Fatal("token-free handshake cycle reported live")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Rule == mga.RuleLive {
			found = true
		}
	}
	if !found {
		t.Fatalf("want an MG-LIVE token-free-cycle finding, got %v", rep.Findings)
	}
}
