package core

import (
	"context"
	"fmt"
	"testing"

	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/sim"
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

// ctlEdge drives the control input after region B's capture #AfterCycle
// (and, for Pulse, returns it to the previous value within the same
// inter-capture window). Token-aligned stimulus is the §4.8 discipline: the
// desynchronized circuit has no wall clock, so the environment must act
// per handshake, not per nanosecond.
type ctlEdge struct {
	AfterCycle int
	V          logic.V
	Pulse      bool
}

func runBoth(t *testing.T, ffCell, ctlPin string, initial logic.V, edges []ctlEdge) {
	t.Helper()
	lib := hs()
	period := 2.5
	cycles := 16

	// Synchronous reference: reset releases before the first edge, so no
	// clock edges happen during reset (the flow-equivalence alignment).
	sync := buildSpecialFFRing(lib, ffCell, ctlPin)
	ss, err := sim.New(sync.Top, sim.Config{Corner: netlist.Worst})
	if err != nil {
		t.Fatal(err)
	}
	ss.Drive("rstn", logic.L, 0)
	ss.Drive("rstn", logic.H, period*0.4)
	ss.Drive("ctl", initial, 0)
	for _, e := range edges {
		// Capture k happens at period/2 + k*period.
		tk := period/2 + float64(e.AfterCycle)*period
		ss.Drive("ctl", e.V, tk+0.25*period)
		if e.Pulse {
			ss.Drive("ctl", e.V.Not(), tk+0.6*period)
		}
	}
	ss.Clock("clk", period, 0, period*float64(cycles))
	if err := ss.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}

	// Desynchronized run with token-aligned control edges.
	des := buildSpecialFFRing(lib, ffCell, ctlPin)
	res, err := Convert(context.Background(), des, Options{Period: period})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grouping.Groups != 2 {
		t.Fatalf("groups = %d, want 2", res.Grouping.Groups)
	}
	groupB := des.Top.Inst("fb0/sl").Group
	// Control pins are sampled by the MASTER latches, so stimulus aligns to
	// master captures: driving after master capture k affects capture k+1,
	// with a full handshake cycle of margin.
	gsNet := fmt.Sprintf("G%d_gm", groupB)
	ds, err := sim.New(des.Top, sim.Config{Corner: netlist.Worst})
	if err != nil {
		t.Fatal(err)
	}
	captures := 0
	pending := append([]ctlEdge(nil), edges...)
	if err := ds.OnChange(gsNet, func(tm float64, v logic.V) {
		if v != logic.L {
			return
		}
		captures++
		for len(pending) > 0 && pending[0].AfterCycle == captures-1 {
			e := pending[0]
			pending = pending[1:]
			ds.Drive("ctl", e.V, tm+0.3)
			if e.Pulse {
				ds.Drive("ctl", e.V.Not(), tm+0.9)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	ds.Drive("rstn", logic.L, 0)
	ds.Drive("rst_desync", logic.H, 0)
	ds.Drive("ctl", initial, 0)
	ds.Drive("rstn", logic.H, 1)
	ds.Drive("rst_desync", logic.L, 2)
	if err := ds.Run(period * float64(cycles) * 3); err != nil {
		t.Fatal(err)
	}

	for name, want := range ss.Captures {
		got := ds.Captures[name+"/sl"]
		if len(got) < 8 {
			t.Fatalf("%s: only %d desync captures", name, len(got))
		}
		n := len(want)
		if len(got) < n {
			n = len(got)
		}
		for k := 0; k < n; k++ {
			if got[k] != want[k] {
				t.Fatalf("%s capture %d: desync %v vs sync %v (cell %s)\nsync:   %v\ndesync: %v",
					name, k, got[k], want[k], ffCell, want[:n], got[:n])
			}
		}
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
// we assert SN together with the system reset and check that the set value
// (1) boots the ring in both versions and the sequences stay identical.
func TestSubstitutionAsyncSetBehaviour(t *testing.T) {
	lib := hs()
	period := 2.5

	sync := buildSpecialFFRing(lib, "DFFSQX1", "SN")
	ss, err := sim.New(sync.Top, sim.Config{Corner: netlist.Worst})
	if err != nil {
		t.Fatal(err)
	}
	ss.Drive("rstn", logic.L, 0)
	ss.Drive("ctl", logic.L, 0) // SN asserted with reset
	ss.Drive("rstn", logic.H, period*0.3)
	ss.Drive("ctl", logic.H, period*0.4)
	ss.Clock("clk", period, 0, period*14)
	if err := ss.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}

	des := buildSpecialFFRing(lib, "DFFSQX1", "SN")
	if _, err := Convert(context.Background(), des, Options{Period: period}); err != nil {
		t.Fatal(err)
	}
	ds, err := sim.New(des.Top, sim.Config{Corner: netlist.Worst})
	if err != nil {
		t.Fatal(err)
	}
	ds.Drive("rstn", logic.L, 0)
	ds.Drive("rst_desync", logic.H, 0)
	ds.Drive("ctl", logic.L, 0)
	ds.Drive("rstn", logic.H, 1)
	ds.Drive("ctl", logic.H, 1.5)
	ds.Drive("rst_desync", logic.L, 2)
	if err := ds.Run(period * 40); err != nil {
		t.Fatal(err)
	}
	// The set boots fb to 1: the very first A captures read INV(1)=0.
	for name, want := range ss.Captures {
		got := ds.Captures[name+"/sl"]
		if len(got) < 8 {
			t.Fatalf("%s: only %d desync captures", name, len(got))
		}
		// Releasing SN closes the forced-open latch, which our simulator
		// logs as one extra capture of the set value; the stored-value
		// sequences are identical (the synchronous flip-flop holds the same
		// 1 during the set, it just isn't a clocked capture). Skip that
		// known artifact.
		if len(got) > 0 && got[0] == logic.H && len(want) > 0 && want[0] != logic.H {
			got = got[1:]
		}
		n := len(want)
		if len(got) < n {
			n = len(got)
		}
		for k := 0; k < n; k++ {
			if got[k] != want[k] {
				t.Fatalf("%s capture %d: desync %v vs sync %v\nsync:   %v\ndesync: %v",
					name, k, got[k], want[k], want[:n], got[:n])
			}
		}
		if want[0] == logic.X {
			t.Fatalf("%s: async set did not define the boot state", name)
		}
	}
}
