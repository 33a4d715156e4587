package lint

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"desync/internal/ctrlnet"
	"desync/internal/handshake"
	"desync/internal/netlist"
	"desync/internal/sta"
)

// dsChecker carries the state the DS-* rules share: the derived
// control-network IR and the report under construction. The structural
// derivation itself — latch coloring, region graph, rendezvous trees,
// delay-chain arrivals — lives in internal/ctrlnet; the rules here only
// judge it.
type dsChecker struct {
	r  *Report
	m  *netlist.Module
	cn *ctrlnet.Network
}

// checkDesync runs the DS-* family over one post-flow module.
func (r *Report) checkDesync(m *netlist.Module, opts Options) {
	cn := opts.Network
	if cn == nil || cn.Module != m {
		cn = ctrlnet.Derive(m)
	}
	c := &dsChecker{r: r, m: m, cn: cn}
	c.checkFFs()
	if cn.Empty() {
		r.addf(RulePair, Error, m.Name, "", "",
			"no controller network found (no G<id>_Mctrl instances); the design is not desynchronized")
		return
	}
	c.checkEnables()
	c.checkPhases()
	c.checkChannels()
	c.checkCElems()
	c.checkTiming(opts)
}

// checkFFs: after substitution no flip-flop may remain (DS-FF).
func (c *dsChecker) checkFFs() {
	for _, in := range c.cn.FFs {
		c.r.addf(RuleFF, Error, c.m.Name, in.Name, "",
			fmt.Sprintf("flip-flop %s survived master/slave substitution", in.CellName()))
	}
}

// checkEnables reports the latch-coloring failure modes (DS-ENABLE): an
// unconnected enable pin, an enable no controller reaches, or one that
// mixes controller phases.
func (c *dsChecker) checkEnables() {
	for _, l := range c.cn.Latches {
		switch {
		case l.Enable == nil:
			c.r.addf(RuleEnable, Error, c.m.Name, l.Inst.Name, "",
				"latch enable pin is unconnected")
		case len(l.Roots) == 0:
			c.r.addf(RuleEnable, Error, c.m.Name, l.Inst.Name, l.Enable.Name,
				"latch enable is not driven by any controller")
		case len(l.Roots) > 1:
			var names []string
			for _, rt := range l.Roots {
				names = append(names, fmt.Sprintf("G%d/%s", rt.Region, rt.Phase))
			}
			sort.Strings(names)
			c.r.addf(RuleEnable, Error, c.m.Name, l.Inst.Name, l.Enable.Name,
				"latch enable reaches multiple controller phases: "+strings.Join(names, ", "))
		}
	}
}

// checkPhases verifies the flow-equivalence prerequisite: every
// latch-to-latch data path connects opposite phases — masters are fed by
// slaves (of the predecessor regions, or their own master→slave pair seen
// from the other side) and slaves by masters (DS-PHASE).
func (c *dsChecker) checkPhases() {
	for _, e := range c.cn.Edges {
		src := c.cn.Latch(e.Src)
		if src == nil || !src.Colored() {
			continue // uncolored (DS-ENABLE) or a flip-flop (DS-FF)
		}
		sink := c.cn.Latch(e.Sink)
		if src.Phase() != sink.Phase() {
			continue // alternating, as required
		}
		c.r.addf(RulePhase, Error, c.m.Name, e.Sink.Name, e.Net.Name,
			fmt.Sprintf("%s-phase latch is fed by %s-phase latch %s: phases must alternate",
				sink.Phase(), src.Phase(), e.Src.Name))
	}
}

// checkChannels cross-checks the req/ack wiring of every region against the
// derived region graph (DS-PAIR): the six control nets exist and are driven
// by their controller gates, the master request arrives from the rendezvous
// of exactly the predecessors' slave requests through the region's delay
// element, and the slave acknowledge rendezvouses exactly the successors'
// master acknowledges.
func (c *dsChecker) checkChannels() {
	m := c.m
	pair := func(inst, net, format string, args ...any) {
		c.r.addf(RulePair, Error, m.Name, inst, net, fmt.Sprintf(format, args...))
	}
	// Latches colored to a region without a controller can't happen (colors
	// come from controllers); the reverse — a controller pair no latch
	// listens to — is dead control logic.
	latchRegions := map[int]bool{}
	for _, l := range c.cn.Latches {
		if l.Colored() {
			latchRegions[l.Region()] = true
		}
	}
	for _, g := range c.cn.Regions {
		if !latchRegions[g] {
			pair(ctrlnet.CtrlGate(g, true, ctrlnet.GateG), "",
				"controller pair for region %d, but no latch is enabled by it", g)
		}
	}

	for _, g := range c.cn.Regions {
		ch := c.cn.Channels[g]
		missing := false
		for _, suffix := range ctrlnet.ChannelSuffixes {
			if ch.BySuffix(suffix) == nil {
				name := ctrlnet.Name(g, suffix)
				pair("", name, "control net %s is missing", name)
				missing = true
			}
		}
		if missing {
			continue
		}
		// Controller gates drive their channel nets.
		ctl := c.cn.Controllers[g]
		for _, chk := range []struct {
			net  *netlist.Net
			inst string
		}{
			{ch.MRO, ctrlnet.CtrlGate(g, true, ctrlnet.GateRO)},
			{ch.SRO, ctrlnet.CtrlGate(g, false, ctrlnet.GateRO)},
			{ch.MAI, ctrlnet.CtrlGate(g, true, ctrlnet.GateAI)},
			{ch.SAI, ctrlnet.CtrlGate(g, false, ctrlnet.GateAI)},
		} {
			if chk.net.Driver.Inst == nil || chk.net.Driver.Inst.Name != chk.inst {
				got := "nothing"
				if d := chk.net.Driver.Inst; d != nil {
					got = d.Name
				}
				pair(chk.inst, chk.net.Name, "net must be driven by %s, driven by %s", chk.inst, got)
			}
		}
		// Master acknowledges the slave: its Ao pin must see sai.
		if mg := ctl.Master.G; mg != nil {
			if ao := mg.Conn("A"); ao != ch.SAI {
				got := "(unconnected)"
				if ao != nil {
					got = ao.Name
				}
				pair(mg.Name, "", "master ack-in must be %s, got %s", ch.SAI.Name, got)
			}
		}
		// Master request reaches the slave through the master/slave element.
		msPrefix := ctrlnet.MSDelayPrefix(g) + "/"
		if a1 := m.Inst(ctrlnet.ChainStage(ctrlnet.MSDelayPrefix(g), 1)); a1 == nil {
			pair("", ch.SRI.Name, "master/slave delay element %sa1 is missing", msPrefix)
		} else if a1.Conn("B") != ch.MRO {
			pair(a1.Name, "", "master/slave element input must be %s", ch.MRO.Name)
		}
		if d := ch.SRI.Driver.Inst; d == nil || !strings.HasPrefix(d.Name, msPrefix) {
			got := "nothing"
			if d != nil {
				got = d.Name
			}
			pair("", ch.SRI.Name, "slave request must come from %s*, driven by %s", msPrefix, got)
		}

		// Request side: predecessors' slave requests → rendezvous → matched
		// delay element → mri. Completion-detected regions trace differently
		// and their request timing is data-dependent by construction.
		if c.cn.Completion[g] {
			c.r.addf(RulePair, Info, m.Name, "", ch.MRI.Name,
				fmt.Sprintf("region %d uses completion detection; request pairing not traced", g))
		} else {
			c.checkRequestSide(g, ch.MRI)
		}

		// Ack side.
		c.checkAckSide(g, ch.SAI)
	}
}

func (c *dsChecker) checkRequestSide(g int, mri *netlist.Net) {
	m := c.m
	pair := func(inst, net, format string, args ...any) {
		c.r.addf(RulePair, Error, m.Name, inst, net, fmt.Sprintf(format, args...))
	}
	dePrefix := ctrlnet.DelayPrefix(g) + "/"
	if d := mri.Driver.Inst; d == nil || !strings.HasPrefix(d.Name, dePrefix) {
		got := "nothing"
		if d != nil {
			got = d.Name
		}
		pair("", mri.Name, "master request must come through the matched element %s*, driven by %s", dePrefix, got)
	}
	a1 := m.Inst(ctrlnet.ChainStage(ctrlnet.DelayPrefix(g), 1))
	if a1 == nil {
		pair("", mri.Name, "matched delay element %sa1 is missing", dePrefix)
		return
	}
	reqSrc := a1.Conn("B")
	if reqSrc == nil {
		pair(a1.Name, "", "matched element input pin B is unconnected")
		return
	}
	preds := c.cn.Preds[g]
	switch len(preds) {
	case 0:
		port := m.Port(ctrlnet.EnvRequestPort(g))
		if port == nil || port.Dir != netlist.In || port.Net != reqSrc {
			pair(a1.Name, reqSrc.Name,
				"region %d has no predecessors: request must come from input port %s", g, ctrlnet.EnvRequestPort(g))
		}
		if m.Port(ctrlnet.EnvReqAckPort(g)) == nil {
			pair("", "", "region %d has no predecessors but no %s acknowledge port exists", g, ctrlnet.EnvReqAckPort(g))
		}
	case 1:
		want := ctrlnet.Name(preds[0], "sro")
		if reqSrc.Name != want {
			pair(a1.Name, reqSrc.Name,
				"region %d request source must be %s (its one predecessor's slave request), got %s",
				g, want, reqSrc.Name)
		}
	default:
		join := ctrlnet.Name(g, "reqjoin")
		if reqSrc.Name != join {
			pair(a1.Name, reqSrc.Name,
				"region %d has %d predecessors: request source must be rendezvous net %s, got %s",
				g, len(preds), join, reqSrc.Name)
			return
		}
		var want []string
		for _, p := range preds {
			want = append(want, ctrlnet.Name(p, "sro"))
		}
		sort.Strings(want)
		got := c.leaves(c.cn.ReqTrees[g])
		if strings.Join(got, " ") != strings.Join(want, " ") {
			pair("", reqSrc.Name,
				"region %d request rendezvous joins {%s}, want {%s} (predecessors %v)",
				g, strings.Join(got, " "), strings.Join(want, " "), preds)
		}
	}
}

func (c *dsChecker) checkAckSide(g int, sai *netlist.Net) {
	m := c.m
	pair := func(inst, net, format string, args ...any) {
		c.r.addf(RulePair, Error, m.Name, inst, net, fmt.Sprintf(format, args...))
	}
	sg := c.cn.Controllers[g].Slave.G
	if sg == nil {
		pair("", "", "slave controller %s is missing", ctrlnet.CtrlPrefix(g, false))
		return
	}
	sao := sg.Conn("A")
	if sao == nil {
		pair(sg.Name, "", "slave ack-in pin is unconnected")
		return
	}
	succs := c.cn.Succs[g]
	switch len(succs) {
	case 0:
		port := m.Port(ctrlnet.EnvAckPort(g))
		if port == nil || port.Dir != netlist.In || port.Net != sao {
			pair(sg.Name, sao.Name,
				"region %d has no successors: acknowledge must come from input port %s", g, ctrlnet.EnvAckPort(g))
		}
		if m.Port(ctrlnet.EnvReadyPort(g)) == nil {
			pair("", "", "region %d has no successors but no %s request port exists", g, ctrlnet.EnvReadyPort(g))
		}
	case 1:
		want := ctrlnet.Name(succs[0], "mai")
		if sao.Name != want {
			pair(sg.Name, sao.Name,
				"region %d acknowledge source must be %s (its one successor's master ack), got %s",
				g, want, sao.Name)
		}
	default:
		join := ctrlnet.Name(g, "sao")
		if sao.Name != join {
			pair(sg.Name, sao.Name,
				"region %d has %d successors: acknowledge must be rendezvous net %s, got %s",
				g, len(succs), join, sao.Name)
			return
		}
		var want []string
		for _, s := range succs {
			want = append(want, ctrlnet.Name(s, "mai"))
		}
		sort.Strings(want)
		got := c.leaves(c.cn.AckTrees[g])
		if strings.Join(got, " ") != strings.Join(want, " ") {
			pair("", sao.Name,
				"region %d acknowledge rendezvous joins {%s}, want {%s} (successors %v)",
				g, strings.Join(got, " "), strings.Join(want, " "), succs)
		}
	}
}

// leaves returns a tree's external inputs, empty for a missing tree.
func (c *dsChecker) leaves(t *ctrlnet.CTree) []string {
	if t == nil {
		return nil
	}
	return t.Leaves
}

// checkCElems verifies rendezvous completeness (DS-CELEM): every C-element
// input must be connected, driven, non-constant, and distinct — a missing
// or tied leg makes the rendezvous fire early or deadlock.
func (c *dsChecker) checkCElems() {
	for _, in := range c.m.Insts {
		if in.Cell == nil || in.Cell.Kind != netlist.KindCElem {
			continue
		}
		seen := map[*netlist.Net]string{}
		for _, p := range in.Cell.Pins {
			if p.Dir != netlist.In {
				continue
			}
			n := in.Conn(p.Name)
			switch {
			case n == nil:
				c.r.addf(RuleCElem, Error, c.m.Name, in.Name, "",
					fmt.Sprintf("rendezvous input %s is unconnected", p.Name))
				continue
			case !n.HasDriver():
				c.r.addf(RuleCElem, Error, c.m.Name, in.Name, n.Name,
					fmt.Sprintf("rendezvous input %s floats", p.Name))
			case n.Driver.Inst != nil && n.Driver.Inst.Cell != nil &&
				n.Driver.Inst.Cell.Kind == netlist.KindTie:
				c.r.addf(RuleCElem, Error, c.m.Name, in.Name, n.Name,
					fmt.Sprintf("rendezvous input %s is tied constant: the rendezvous can never wait on it", p.Name))
			}
			if prev, dup := seen[n]; dup {
				c.r.addf(RuleCElem, Error, c.m.Name, in.Name, n.Name,
					fmt.Sprintf("inputs %s and %s share one net: the rendezvous is degenerate", prev, p.Name))
			}
			seen[n] = p.Name
		}
	}
}

// checkTiming runs the two STA cross-checks: DS-SDC (every cyclic control
// path is covered by a loop-breaking constraint) and DS-MARGIN (every
// matched delay element covers its region's launch-to-capture budget at the
// worst corner, honoring per-instance variability factors).
func (c *dsChecker) checkTiming(opts Options) {
	m := c.m
	staOpts := sta.Options{Corner: netlist.Worst, AutoBreakLoops: true}
	if opts.Constraints != nil {
		staOpts.Disabled = map[sta.ArcKey]bool{}
		for _, da := range opts.Constraints.Disabled {
			staOpts.Disabled[sta.ArcKey{Inst: da.Inst, From: da.From, To: da.To}] = true
		}
		// Every controller needs its three loop-breaking disables present.
		for _, g := range c.cn.Regions {
			for _, master := range []bool{true, false} {
				for _, a := range handshake.ControllerDisabledArcs(ctrlnet.CtrlPrefix(g, master)) {
					if !staOpts.Disabled[sta.ArcKey{Inst: a[0], From: a[1], To: a[2]}] {
						c.r.addf(RuleSDC, Error, m.Name, a[0], "",
							fmt.Sprintf("loop-breaking constraint missing for arc %s %s->%s", a[0], a[1], a[2]))
					}
				}
			}
		}
	} else {
		c.r.addf(RuleSDC, Info, m.Name, "", "",
			"no SDC constraints supplied; loop coverage not cross-checked")
	}

	g, err := sta.Build(m, staOpts)
	if err != nil {
		c.r.addf(RuleSDC, Error, m.Name, "", "", fmt.Sprintf("timing graph build failed: %v", err))
		return
	}
	if opts.Constraints != nil {
		for _, ak := range g.AutoBroken {
			c.r.addf(RuleSDC, Error, m.Name, ak.Inst, "",
				fmt.Sprintf("cyclic control path not covered by the constraints; auto-broken at %s %s->%s",
					ak.Inst, ak.From, ak.To))
		}
	}

	// DS-MARGIN times the same graph: the matched elements are checked
	// against the budgets of the loop-broken network.
	rds, err := g.Analyze().RegionDelays(context.Background())
	if err != nil {
		c.r.addf(RuleMargin, Error, m.Name, "", "",
			fmt.Sprintf("region delay analysis failed: %v", err))
		return
	}
	// Worst latch launch + capture cost, for the master/slave elements.
	var c2q, setup float64
	for _, in := range m.Insts {
		cd := in.Cell
		if cd == nil || cd.Kind != netlist.KindLatch {
			continue
		}
		if a := cd.Arc(cd.Seq.ClockPin, cd.Seq.Q); a != nil {
			c2q = math.Max(c2q, math.Max(a.Rise.Worst, a.Fall.Worst))
		}
		setup = math.Max(setup, cd.Setup.Worst)
	}
	const eps = 1e-9
	for _, reg := range c.cn.Regions {
		if ms := c.cn.MSDelays[reg]; ms != nil {
			if budget := c2q + setup; ms.Delay+eps < budget {
				c.r.addf(RuleMargin, Error, m.Name, ctrlnet.ChainStage(ctrlnet.MSDelayPrefix(reg), 1), "",
					fmt.Sprintf("master/slave element (%d levels, %.3f ns) is under the latch launch+capture cost %.3f ns",
						ms.Levels, ms.Delay, budget))
			}
		}
		if c.cn.Completion[reg] {
			continue // completion detection: timing is data-dependent by construction
		}
		de := c.cn.ReqDelays[reg]
		if de == nil {
			continue // missing element already reported by DS-PAIR
		}
		rd := rds[reg]
		if rd == nil {
			continue
		}
		if budget := rd.Budget(); de.Delay+eps < budget {
			c.r.addf(RuleMargin, Error, m.Name, ctrlnet.ChainStage(ctrlnet.DelayPrefix(reg), 1), "",
				fmt.Sprintf("matched element (%d levels, %.3f ns) does not cover region %d's budget %.3f ns (worst path into %s)",
					de.Levels, de.Delay, reg, budget, rd.WorstPath))
		}
	}
}
