package core

import (
	"sort"

	"fmt"

	"desync/internal/ctrlnet"
	"desync/internal/netlist"
)

// EnableNets holds the per-group master/slave latch-enable nets created by
// flip-flop substitution and driven later by the controller network.
type EnableNets struct {
	Master, Slave *netlist.Net
}

// SubstituteResult reports the substitution outcome.
type SubstituteResult struct {
	Enables    map[int]EnableNets
	FFs        int // flip-flops replaced
	ExtraGates int // helper gates created (muxes, set/reset gating, Fig 3.1)
	ClockNets  []string
}

// SubstituteFlipFlops replaces every flip-flop with a master/slave latch
// pair per the rules of Fig 3.1, creates per-group enable nets, and removes
// the now-unloaded clock network. The library provides only plain and
// async-reset latches (the paper's worst case, §3.1.2), so scan muxing,
// synchronous set/reset and clock gating are rebuilt from discrete gates,
// all tagged Origin "ffsub" so the area accounting attributes them to
// sequential logic as the paper does for the ARM (§5.3.1).
func SubstituteFlipFlops(d *netlist.Design) (*SubstituteResult, error) {
	m := d.Top
	lib := d.Lib
	res := &SubstituteResult{Enables: map[int]EnableNets{}}

	enables := func(grp int) EnableNets {
		if e, ok := res.Enables[grp]; ok {
			return e
		}
		e := EnableNets{
			Master: m.EnsureNet(ctrlnet.Name(grp, "gm")),
			Slave:  m.EnsureNet(ctrlnet.Name(grp, "gs")),
		}
		res.Enables[grp] = e
		return e
	}

	clockNets := map[*netlist.Net]bool{}
	var ffs []*netlist.Inst
	ffSet := map[*netlist.Inst]bool{}
	for _, in := range m.Insts {
		if in.Cell != nil && in.Cell.Kind == netlist.KindFF {
			ffs = append(ffs, in)
			ffSet[in] = true
		}
	}
	// Snapshot every flip-flop's pin->net map, then detach all FF input
	// sinks in one filter pass per net. Clock, reset and scan-enable nets
	// fan out to every flip-flop, so the per-pin Disconnect inside
	// RemoveInst would rescan and resplice those sink lists once per FF —
	// quadratic at hundreds of thousands of flip-flops.
	ffConns := make([]map[string]*netlist.Net, len(ffs))
	touched := map[*netlist.Net]bool{}
	for i, ff := range ffs {
		conns := make(map[string]*netlist.Net, len(ff.Conns()))
		for _, pc := range ff.Conns() {
			conns[pc.Pin] = pc.Net
			if pc.Dir == netlist.In {
				touched[pc.Net] = true
			}
		}
		ffConns[i] = conns
		clockNets[conns[ff.Cell.Seq.ClockPin]] = true
	}
	dropFF := func(s netlist.PinRef) bool { return ffSet[s.Inst] }
	for n := range touched {
		m.DisconnectSinks(n, dropFF)
	}
	// Every substitution removes one flip-flop; batch the removals so the
	// Insts array compacts once after the loop instead of splicing per FF.
	m.BeginBulk()
	for i, ff := range ffs {
		if err := substituteOne(m, lib, ff, ffConns[i], enables, res); err != nil {
			m.EndBulk()
			return nil, err
		}
	}
	m.EndBulk()
	res.FFs = len(ffs)

	// Remove clock nets that no longer drive anything, and their input
	// ports — in name order, so the result (and any report built from it)
	// does not inherit the map's iteration order. A clock net that still
	// has a sink (an output port reading the clock, a clock-gating cell)
	// stays, with its port.
	clks := make([]*netlist.Net, 0, len(clockNets))
	for n := range clockNets {
		clks = append(clks, n)
	}
	sort.Slice(clks, func(i, j int) bool { return clks[i].Name < clks[j].Name })
	for _, n := range clks {
		if len(n.Sinks) == 0 {
			removeNetAndPort(m, n)
			res.ClockNets = append(res.ClockNets, n.Name)
		}
	}
	return res, nil
}

func removeNetAndPort(m *netlist.Module, n *netlist.Net) {
	for i, p := range m.Ports {
		if p.Net == n {
			m.Ports = append(m.Ports[:i], m.Ports[i+1:]...)
			break
		}
	}
	n.Driver = netlist.PinRef{}
	_ = m.RemoveNet(n)
}

// substituteOne rewrites a single flip-flop as a latch pair. conns is the
// flip-flop's pin->net map snapshotted before its input pins were detached.
func substituteOne(m *netlist.Module, lib *netlist.Library, ff *netlist.Inst,
	conns map[string]*netlist.Net, enables func(int) EnableNets, res *SubstituteResult) error {

	c := ff.Cell
	spec := c.Seq
	grp := ff.Group
	if grp < 0 {
		return fmt.Errorf("core: flip-flop %s has no region; run grouping first", ff.Name)
	}
	en := enables(grp)

	newGate := func(suffix, cell string) *netlist.Inst {
		g := m.AddInst(ff.Name+"/"+suffix, lib.MustCell(cell))
		g.Group = grp
		g.Origin = "ffsub"
		return g
	}
	newNet := func(suffix string) *netlist.Net { return m.AddNet(ff.Name + "/" + suffix) }

	// The flip-flop disappears first so its pins release their nets.
	m.RemoveInst(ff)

	// Data path into the master latch: start from D, fold in scan muxing
	// and synchronous reset per Fig 3.1(a)/(b).
	dataNet := conns["D"]
	if dataNet == nil {
		return fmt.Errorf("core: flip-flop %s has no D pin", ff.Name)
	}
	res.ExtraGates += 0
	if spec.ScanIn != "" {
		// Fig 3.1(a): multiplexer before the master latch.
		mux := newGate("scanmux", "MUX2X1")
		out := newNet("md")
		m.MustConnect(mux, "A", dataNet)
		m.MustConnect(mux, "B", conns[spec.ScanIn])
		m.MustConnect(mux, "S", conns[spec.ScanEnable])
		m.MustConnect(mux, "Z", out)
		dataNet = out
		res.ExtraGates++
	}
	if c.Name == "DFFSYNRX1" {
		// Fig 3.1(b): AND with inverted input before the master latch.
		g := newGate("syncr", "ANDN2X1")
		out := newNet("mr")
		m.MustConnect(g, "A", dataNet)
		m.MustConnect(g, "B", conns["R"])
		m.MustConnect(g, "Z", out)
		dataNet = out
		res.ExtraGates++
	}

	// Latch enables, gated per Fig 3.1(d) for clock-gated flip-flops.
	gm, gs := en.Master, en.Slave
	if spec.ClockGate != "" {
		gateM := newGate("cgm", "AND2X1")
		gateS := newGate("cgs", "AND2X1")
		gmn, gsn := newNet("gm"), newNet("gs")
		m.MustConnect(gateM, "A", gm)
		m.MustConnect(gateM, "B", conns[spec.ClockGate])
		m.MustConnect(gateM, "Z", gmn)
		m.MustConnect(gateS, "A", gs)
		m.MustConnect(gateS, "B", conns[spec.ClockGate])
		m.MustConnect(gateS, "Z", gsn)
		gm, gs = gmn, gsn
		res.ExtraGates += 2
	}

	// Asynchronous set needs Fig 3.1(c): open the latches and force the
	// value while the set is asserted. Asynchronous reset uses the
	// library's reset latch directly.
	latchCell := "LATQX1"
	var rn *netlist.Net
	if spec.AsyncReset != "" {
		latchCell = "LATRQX1"
		rn = conns[spec.AsyncReset]
		if !spec.AsyncResetLow {
			inv := newGate("rinv", "INVX1")
			out := newNet("rn")
			m.MustConnect(inv, "A", rn)
			m.MustConnect(inv, "Z", out)
			rn = out
			res.ExtraGates++
		}
	}
	if spec.AsyncSet != "" {
		// setx is active-high set.
		setx := conns[spec.AsyncSet]
		if spec.AsyncSetLow {
			inv := newGate("sinv", "INVX1")
			out := newNet("setx")
			m.MustConnect(inv, "A", setx)
			m.MustConnect(inv, "Z", out)
			setx = out
			res.ExtraGates++
		}
		// Force data high and open both latches while set is asserted.
		dOr := newGate("setd", "OR2X1")
		dOut := newNet("sd")
		m.MustConnect(dOr, "A", dataNet)
		m.MustConnect(dOr, "B", setx)
		m.MustConnect(dOr, "Z", dOut)
		dataNet = dOut
		gOrM := newGate("setgm", "OR2X1")
		gOrS := newGate("setgs", "OR2X1")
		gmn, gsn := newNet("sgm"), newNet("sgs")
		m.MustConnect(gOrM, "A", gm)
		m.MustConnect(gOrM, "B", setx)
		m.MustConnect(gOrM, "Z", gmn)
		m.MustConnect(gOrS, "A", gs)
		m.MustConnect(gOrS, "B", setx)
		m.MustConnect(gOrS, "Z", gsn)
		gm, gs = gmn, gsn
		res.ExtraGates += 3
	}

	// The master/slave pair.
	master := newGate("ml", latchCell)
	slave := newGate("sl", latchCell)
	mq := newNet("mq")
	m.MustConnect(master, "D", dataNet)
	m.MustConnect(master, "G", gm)
	m.MustConnect(master, "Q", mq)
	m.MustConnect(slave, "D", mq)
	m.MustConnect(slave, "G", gs)
	if rn != nil {
		m.MustConnect(master, "RN", rn)
		m.MustConnect(slave, "RN", rn)
	}
	if q := conns[spec.Q]; q != nil {
		m.MustConnect(slave, "Q", q)
	} else {
		m.MustConnect(slave, "Q", newNet("q"))
	}
	if spec.QN != "" {
		if qn := conns[spec.QN]; qn != nil {
			if len(qn.Sinks) > 0 {
				inv := newGate("qninv", "INVX1")
				m.MustConnect(inv, "A", slave.Conn("Q"))
				m.MustConnect(inv, "Z", qn)
				res.ExtraGates++
			} else if !isPortNet(m, qn) {
				_ = m.RemoveNet(qn)
			}
		}
	}
	return nil
}
