package core

import (
	"context"
	"fmt"
	"testing"

	"desync/internal/logic"
	"desync/internal/netlist"
)

// buildSpecialFFRing makes a 2-region ring exercising one special flip-flop
// kind in region B: region A is a plain 2-bit stage; region B uses the
// given flip-flop cell with its control pin wired to the "ctl" input.
// Remaining control pins wire to sensible defaults (resets to rstn, scan
// data to a neighbouring register).
func buildSpecialFFRing(lib *netlist.Library, ffCell string, ctlPin string) *netlist.Design {
	d := netlist.NewDesign("ring", lib)
	m := d.Top
	clk := m.AddPort("clk", netlist.In).Net
	rstn := m.AddPort("rstn", netlist.In).Net
	ctl := m.AddPort("ctl", netlist.In).Net

	aq := []*netlist.Net{m.AddNet("aq[0]"), m.AddNet("aq[1]")}
	bq := []*netlist.Net{m.AddNet("bq[0]"), m.AddNet("bq[1]")}

	// Region A cloud: invert B's outputs.
	for i := 0; i < 2; i++ {
		ad := m.AddNet(fmt.Sprintf("ad[%d]", i))
		g := m.AddInst(fmt.Sprintf("ga%d", i), lib.MustCell("INVX1"))
		m.MustConnect(g, "A", bq[i])
		m.MustConnect(g, "Z", ad)
		ff := m.AddInst(fmt.Sprintf("fa%d", i), lib.MustCell("DFFRQX1"))
		m.MustConnect(ff, "D", ad)
		m.MustConnect(ff, "CK", clk)
		m.MustConnect(ff, "RN", rstn)
		m.MustConnect(ff, "Q", aq[i])
	}
	// Region B cloud: xor the two A bits into each B bit.
	for i := 0; i < 2; i++ {
		bd := m.AddNet(fmt.Sprintf("bd[%d]", i))
		g := m.AddInst(fmt.Sprintf("gb%d", i), lib.MustCell("XOR2X1"))
		m.MustConnect(g, "A", aq[i])
		m.MustConnect(g, "B", aq[(i+1)%2])
		m.MustConnect(g, "Z", bd)
		cell := lib.MustCell(ffCell)
		ff := m.AddInst(fmt.Sprintf("fb%d", i), cell)
		m.MustConnect(ff, "D", bd)
		m.MustConnect(ff, "CK", clk)
		if ctlPin != "" {
			m.MustConnect(ff, ctlPin, ctl)
		}
		m.MustConnect(ff, "Q", bq[i])
		for _, p := range cell.Pins {
			if p.Dir != netlist.In || ff.Conn(p.Name) != nil {
				continue
			}
			switch p.Name {
			case "RN", "SN":
				m.MustConnect(ff, p.Name, rstn)
			case "SI":
				m.MustConnect(ff, "SI", aq[i])
			default:
				m.MustConnect(ff, p.Name, ctl)
			}
		}
	}
	return d
}

// ctlEdge sets the control input to V from capture AfterCycle+1 on. The
// harness applies it token-aligned (the §4.8 discipline: the
// desynchronized circuit has no wall clock, so the environment acts per
// handshake, not per nanosecond): after the reference's clock edge
// AfterCycle, and after region B's master capture AfterCycle, since the
// control pins are sampled by the master latches.
type ctlEdge struct {
	AfterCycle int
	V          logic.V
}

func runBoth(t *testing.T, ffCell, ctlPin string, initial logic.V, edges []ctlEdge) {
	t.Helper()
	lib := hs()
	period := 2.5
	des := buildSpecialFFRing(lib, ffCell, ctlPin)
	res, err := Convert(context.Background(), des, Options{Period: period})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grouping.Groups != 2 {
		t.Fatalf("groups = %d, want 2", res.Grouping.Groups)
	}
	// ctl is the ring's one data input: bit 0 of each vector.
	stream, v := make([]uint64, 16), initial
	for k := range stream {
		for _, e := range edges {
			if e.AfterCycle == k-1 {
				v = e.V
			}
		}
		if v == logic.H {
			stream[k] = 1
		}
	}
	if v := flowEquivalent(t, buildSpecialFFRing(lib, ffCell, ctlPin), des, res, period, 16, stream, 0); v.Registers != 4 {
		t.Fatalf("cell %s: compared %d registers, want 4", ffCell, v.Registers)
	}
}

// Fig 3.1(b): synchronous reset folds into the master latch's data path.
func TestSubstitutionSyncResetBehaviour(t *testing.T) {
	runBoth(t, "DFFSYNRX1", "R", logic.L, []ctlEdge{
		{AfterCycle: 5, V: logic.H},
		{AfterCycle: 8, V: logic.L},
	})
}

// Fig 3.1(d): clock gating gates both latch enables.
func TestSubstitutionClockGatingBehaviour(t *testing.T) {
	runBoth(t, "DFFCGX1", "EN", logic.H, []ctlEdge{
		{AfterCycle: 6, V: logic.L},
		{AfterCycle: 9, V: logic.H},
	})
}

// Fig 3.1(a): scan flip-flops become mux + latch pair; flow equivalence
// holds through a scan-mode episode (SI wired to a neighbouring register).
func TestSubstitutionScanBehaviour(t *testing.T) {
	runBoth(t, "SDFFRQX1", "SE", logic.L, []ctlEdge{
		{AfterCycle: 5, V: logic.H},
		{AfterCycle: 9, V: logic.L},
	})
}

// Fig 3.1(c): asynchronous set rebuilt from OR gating around plain latches.
// Asynchronous set/reset is initialization semantics: a mid-run pulse on a
// free-running self-timed pipeline has no single global "between cycles"
// instant, so — as in the paper, where async controls initialize state —
// SN is the system reset itself (buildSpecialFFRing wires an unnamed set
// pin to rstn), and the set value (1) must boot the ring in both versions
// with identical sequences, none of them X. Releasing it closes the
// forced-open latches, which the simulator logs as a slave capture of the
// set value before the master's first; the harness's alignment rule sets
// aside exactly that one capture of each set register (fb0, fb1).
func TestSubstitutionAsyncSetBehaviour(t *testing.T) {
	lib := hs()
	period := 2.5
	des := buildSpecialFFRing(lib, "DFFSQX1", "")
	res, err := Convert(context.Background(), des, Options{Period: period})
	if err != nil {
		t.Fatal(err)
	}
	v := flowEquivalent(t, buildSpecialFFRing(lib, "DFFSQX1", ""), des, res, period, 14, nil, 2)
	if v.Unknown != 0 {
		t.Fatalf("%d reference captures are X: the async set did not define the boot state", v.Unknown)
	}
}
