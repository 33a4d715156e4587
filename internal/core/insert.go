package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"desync/internal/cdet"
	"desync/internal/ctrlnet"
	"desync/internal/handshake"
	"desync/internal/netlist"
	"desync/internal/sdc"
	"desync/internal/sta"
)

// SizeDelayElements computes, per region, the AND-chain depth whose
// worst-corner rise delay covers the region's launch-to-capture budget
// (§3.2.5): source clock-to-output + combinational critical path + setup,
// times the margin. Returns levels per region.
func SizeDelayElements(ctx context.Context, d *netlist.Design, ddg *DDG, margin float64) (map[int]int, map[int]*sta.RegionDelay, error) {
	rds, err := sta.RegionDelays(ctx, d.Top, netlist.Worst, sta.Options{})
	if err != nil {
		return nil, nil, err
	}
	level, err := handshake.DelayLevel(d.Lib)
	if err != nil {
		return nil, nil, err
	}
	levels := map[int]int{}
	for _, g := range ddg.Nodes {
		budget := 0.0
		if rd := rds[g]; rd != nil {
			budget = rd.Budget()
		}
		n := int(math.Ceil(budget * margin / level))
		if n < 1 {
			n = 1
		}
		levels[g] = n
	}
	return levels, rds, nil
}

// InsertOptions controls the control-network insertion.
type InsertOptions struct {
	// Margin scales the matched delay elements over the measured budget.
	Margin float64
	// MuxTaps builds 8-tap multiplexed delay elements (Fig 5.3's
	// calibration knob) selected by new top-level ports delsel[2:0], with
	// the per-tap multipliers of tapScales.
	MuxTaps bool
	// Period is the original clock period used for the latch-enable clock
	// constraints (Fig 4.2); zero skips clock constraint generation.
	Period float64
	// CompletionDetection replaces each region's matched delay element
	// with a dual-rail completion network (§2.4.4): the request completes
	// when the region's outputs have actually resolved, giving
	// data-dependent average-case timing at ~2x combinational area.
	CompletionDetection bool
}

// completionMargin is the extra slow-rise levels on each DONE signal of a
// completion network.
const completionMargin = 2

// tapScales spreads eight taps below and above the sized length.
// Desynchronized latch pairs borrow time through transparency, so the
// request delay a region truly needs is well below the conservative
// launch+comb+setup budget the sizing uses (index 4 = 1.0); taps 0 and 1
// sit firmly below the failure boundary so the Fig 5.3 sweep shows the
// "too short delay elements" points at the same selections in both
// corners, with selection 2 the best working setup, as in the paper.
var tapScales = []float64{0.03, 0.07, 0.45, 0.7, 1.0, 1.4, 1.8, 2.2}

// InsertResult reports what the network insertion created.
type InsertResult struct {
	Controllers     int
	CTreeCells      int
	DelayCells      int
	CompletionCells int
	Constraints     *sdc.Constraints
	// EnvRequests lists input ports created for regions without
	// predecessors; EnvAcks lists input ports for regions without
	// successors (the testbench handshakes these, §4.8).
	EnvRequests, EnvAcks []string
	// Claim is the insertion's own record of the control network it built,
	// in the ctrlnet cross-check vocabulary: ctrlnet.Diff checks it against
	// the independently derived ctrlnet.Network at the end of the flow.
	Claim *ctrlnet.Claim
}

// InsertControlNetwork replaces the removed clock network with the latch
// controller network (§2.4, §3.2.6): one master/slave controller pair per
// region, C-Muller rendezvous for multiple requests/acknowledges, and one
// matched delay element per region on its request input. It also emits the
// backend constraints of §4.5–4.6.
func InsertControlNetwork(d *netlist.Design, ddg *DDG, enables map[int]EnableNets, levels map[int]int, opts InsertOptions) (*InsertResult, error) {
	m := d.Top
	lib := d.Lib
	res := &InsertResult{Constraints: &sdc.Constraints{}}
	claim := &ctrlnet.Claim{
		Module:  m,
		Regions: append([]int(nil), ddg.Nodes...),
		Preds:   map[int][]int{}, Succs: map[int][]int{},
		DelayLevels: map[int]int{}, MSLevels: map[int]int{},
		Completion: map[int]bool{},
	}
	for _, g := range ddg.Nodes {
		claim.Preds[g] = append([]int(nil), ddg.Preds[g]...)
		claim.Succs[g] = append([]int(nil), ddg.Succs[g]...)
	}
	res.Claim = claim

	// Reset port for the controllers.
	if m.Port(ctrlnet.DesyncReset.Port) != nil {
		return nil, fmt.Errorf("core: port %s already exists", ctrlnet.DesyncReset.Port)
	}
	rst := m.AddPort(ctrlnet.DesyncReset.Port, netlist.In).Net

	// Tap-select ports when calibration muxes are requested.
	var sel []*netlist.Net
	if opts.MuxTaps {
		for i := 0; i < 3; i++ {
			sel = append(sel, m.AddPort(fmt.Sprintf("delsel[%d]", i), netlist.In).Net)
		}
	}

	net := func(name string) *netlist.Net { return m.EnsureNet(name) }

	type regionNets struct {
		mri, mai, mro, sri, sai, sro *netlist.Net
	}
	rn := map[int]*regionNets{}
	for _, g := range ddg.Nodes {
		rn[g] = &regionNets{
			mri: net(ctrlnet.Name(g, "mri")), mai: net(ctrlnet.Name(g, "mai")),
			mro: net(ctrlnet.Name(g, "mro")), sri: net(ctrlnet.Name(g, "sri")),
			sai: net(ctrlnet.Name(g, "sai")), sro: net(ctrlnet.Name(g, "sro")),
		}
	}
	// Resolve each region's slave acknowledge source: the single
	// successor's master ack directly, a rendezvous net for several, or an
	// environment port for none.
	sao := map[int]*netlist.Net{}
	for _, g := range ddg.Nodes {
		switch succs := ddg.Succs[g]; len(succs) {
		case 0:
			port := ctrlnet.EnvAckPort(g)
			m.AddPort(port, netlist.In)
			sao[g] = m.Net(port)
			res.EnvAcks = append(res.EnvAcks, port)
			// The environment watches the slave's request to know when the
			// region's data is valid.
			if err := exposeNet(m, lib, ctrlnet.EnvReadyPort(g), rn[g].sro); err != nil {
				return nil, err
			}
		case 1:
			sao[g] = rn[succs[0]].mai
		default:
			sao[g] = net(ctrlnet.Name(g, "sao"))
		}
	}
	for _, g := range ddg.Nodes {
		en, ok := enables[g]
		if !ok {
			return nil, fmt.Errorf("core: region %d has no enable nets; run substitution first", g)
		}
		r := rn[g]
		mPrefix := ctrlnet.CtrlPrefix(g, true)
		sPrefix := ctrlnet.CtrlPrefix(g, false)
		if err := handshake.AddController(m, lib, mPrefix, true, handshake.ControllerPorts{
			Ri: r.mri, Ai: r.mai, Ro: r.mro, Ao: r.sai, G: en.Master, Rst: rst,
		}); err != nil {
			return nil, err
		}
		if err := handshake.AddController(m, lib, sPrefix, false, handshake.ControllerPorts{
			Ri: r.sri, Ai: r.sai, Ro: r.sro, Ao: sao[g], G: en.Slave, Rst: rst,
		}); err != nil {
			return nil, err
		}
		res.Controllers += 2
		// Master request feeds the slave through a short matched element
		// covering the master latch's enable-to-output plus the slave's
		// setup. This path is short, so intra-die mismatch is relatively
		// large on it: size with extra margin.
		msLevels := masterSlaveLevels(lib, opts.Margin+0.25)
		if err := handshake.AddDelayElement(m, lib, ctrlnet.MSDelayPrefix(g), r.mro, r.sri, rst, nil,
			handshake.DelayElementSpec{Levels: msLevels}); err != nil {
			return nil, err
		}
		res.DelayCells += msLevels + 1
		claim.MSLevels[g] = msLevels
		// Loop breaking and size-only constraints (§4.6).
		for _, p := range []string{mPrefix, sPrefix} {
			for _, a := range handshake.ControllerDisabledArcs(p) {
				res.Constraints.Disabled = append(res.Constraints.Disabled,
					sdc.DisabledArc{Inst: a[0], From: a[1], To: a[2]})
			}
		}
	}

	// Cross-region request/acknowledge wiring.
	for _, g := range ddg.Nodes {
		r := rn[g]
		preds := ddg.Preds[g]
		// Master request input: rendezvous of all predecessors' slave
		// requests, through this region's matched delay element.
		var reqSrc *netlist.Net
		switch len(preds) {
		case 0:
			// Environment provides the request and observes the acknowledge
			// (the testbench handshake of §4.8).
			port := ctrlnet.EnvRequestPort(g)
			m.AddPort(port, netlist.In)
			reqSrc = m.Net(port)
			res.EnvRequests = append(res.EnvRequests, port)
			if err := exposeNet(m, lib, ctrlnet.EnvReqAckPort(g), r.mai); err != nil {
				return nil, err
			}
		case 1:
			reqSrc = rn[preds[0]].sro
		default:
			join := net(ctrlnet.Name(g, "reqjoin"))
			var ins []*netlist.Net
			for _, p := range preds {
				ins = append(ins, rn[p].sro)
			}
			cells, err := handshake.AddCTree(m, lib, ctrlnet.CTreePrefix(g, true), ins, join)
			if err != nil {
				return nil, err
			}
			res.CTreeCells += cells
			reqSrc = join
		}
		completed := false
		reqFromCdet := ""
		if opts.CompletionDetection {
			built, doneInst, err := insertCompletion(m, lib, g, reqSrc, r.mri, res)
			if err != nil {
				return nil, err
			}
			// A region without a combinational cloud (a pure register
			// chain) falls back to the matched element sized for it.
			completed = built
			reqFromCdet = doneInst + "/A"
		}
		claim.Completion[g] = completed
		reqFrom := reqFromCdet
		if !completed {
			lv := levels[g]
			if lv < 1 {
				lv = 1
			}
			spec := handshake.DelayElementSpec{Levels: lv}
			var selNets []*netlist.Net
			if opts.MuxTaps {
				spec = muxedSpec(lv)
				selNets = sel
			}
			if err := handshake.AddDelayElement(m, lib, ctrlnet.DelayPrefix(g), reqSrc, r.mri, rst, selNets, spec); err != nil {
				return nil, err
			}
			res.DelayCells += spec.Levels
			claim.DelayLevels[g] = spec.Levels
			reqFrom = ctrlnet.ChainStage(ctrlnet.DelayPrefix(g), 1) + "/A"
		}
		// Constrain the request path min/max so timing-driven P&R keeps the
		// matched element matched (§4.6).
		res.Constraints.PointDelays = append(res.Constraints.PointDelays, sdc.PointDelay{
			From: reqFrom,
			To:   ctrlnet.CtrlGate(g, true, ctrlnet.GateG) + "/B",
			Min:  0,
			Max:  opts.Period,
		})

		// Slave acknowledge input: rendezvous of all successors' master
		// acknowledges (single- and zero-successor cases were wired when
		// the controllers were created).
		if succs := ddg.Succs[g]; len(succs) > 1 {
			var ins []*netlist.Net
			for _, s := range succs {
				ins = append(ins, rn[s].mai)
			}
			cells, err := handshake.AddCTree(m, lib, ctrlnet.CTreePrefix(g, false), ins, sao[g])
			if err != nil {
				return nil, err
			}
			res.CTreeCells += cells
		}
	}
	claim.EnvRequests = append([]string(nil), res.EnvRequests...)
	claim.EnvAcks = append([]string(nil), res.EnvAcks...)

	// Size-only markers for every controller-network cell (§4.6.2), and
	// region tags on them so region-aware placement can keep each
	// controller and delay element with the logic it serves (§6).
	for _, in := range m.Insts {
		if in.SizeOnly {
			res.Constraints.SizeOnly = append(res.Constraints.SizeOnly, in.Name)
		}
		if in.Group < 0 {
			if g, ok := ctrlnet.Region(in.Name); ok {
				in.Group = g
			}
		}
	}
	sort.Strings(res.Constraints.SizeOnly)

	// Latch-enable clock constraints (Fig 4.2): master and slave enables as
	// derived clocks with the original period; the master falling edge and
	// slave rising edge coincide at the original capture edge.
	if opts.Period > 0 {
		var mSrcs, sSrcs []string
		for _, g := range ddg.Nodes {
			mSrcs = append(mSrcs, ctrlnet.CtrlGate(g, true, ctrlnet.GateG)+"/Q")
			sSrcs = append(sSrcs, ctrlnet.CtrlGate(g, false, ctrlnet.GateG)+"/Q")
		}
		p := opts.Period
		res.Constraints.Clocks = append(res.Constraints.Clocks,
			sdc.Clock{Name: "ClkM", Period: p, Waveform: [2]float64{p / 2, p}, Sources: mSrcs, OnPins: true},
			sdc.Clock{Name: "ClkS", Period: p, Waveform: [2]float64{p, p + p/6}, Sources: sSrcs, OnPins: true},
		)
	}
	return res, nil
}

// insertCompletion shadows region g's combinational cloud with a dual-rail
// completion network (§2.4.4): go = the joined predecessor requests, done =
// the master's request input. Returns false when the region has no cloud to
// detect (pure register chains), and the instance name driving done.
func insertCompletion(m *netlist.Module, lib *netlist.Library, g int,
	goNet, done *netlist.Net, res *InsertResult) (bool, string, error) {

	var cloud []*netlist.Inst
	inCloud := map[*netlist.Inst]bool{}
	for _, in := range m.Insts {
		if in.Group != g || in.Cell == nil || in.Cell.Kind != netlist.KindComb {
			continue
		}
		switch in.Origin {
		case "ctrl", "delem", "cdet", "cts":
			continue
		}
		cloud = append(cloud, in)
		inCloud[in] = true
	}
	if len(cloud) == 0 {
		return false, "", nil
	}
	// Detect the nets that feed the region's sequential elements and are
	// driven by the cloud.
	seen := map[*netlist.Net]bool{}
	var detect []*netlist.Net
	for _, in := range m.Insts {
		if in.Group != g || in.Cell == nil || in.Cell.Seq == nil {
			continue
		}
		for _, pc := range in.Conns() {
			pin, n := pc.Pin, pc.Net
			pd := in.Cell.Pin(pin)
			if pd == nil || pd.Dir != netlist.In || pd.Class != netlist.ClassData {
				continue
			}
			if seen[n] || n.Driver.Inst == nil || !inCloud[n.Driver.Inst] {
				continue
			}
			seen[n] = true
			detect = append(detect, n)
		}
	}
	if len(detect) == 0 {
		return false, "", nil
	}
	sort.Slice(detect, func(i, j int) bool { return detect[i].Name < detect[j].Name })
	r, err := cdet.AddCompletionNetwork(m, lib, ctrlnet.CdetPrefix(g), cloud, detect, goNet, done, completionMargin)
	if err != nil {
		return false, "", err
	}
	res.CompletionCells += r.RailCells + r.DetectCells
	return true, r.DoneInst, nil
}

// exposeNet publishes an internal handshake net on a new output port of the
// same name, buffered so the port has its own net.
func exposeNet(m *netlist.Module, lib *netlist.Library, port string, src *netlist.Net) error {
	p := m.AddPort(port, netlist.Out)
	b := m.AddInst(port+"_buf", lib.MustCell("BUFX1"))
	b.Origin = "ctrl"
	if err := m.Connect(b, "A", src); err != nil {
		return err
	}
	return m.Connect(b, "Z", p.Net)
}

// masterSlaveLevels sizes the master→slave request delay: the worst latch
// enable-to-output plus the worst latch setup, over one delay-element
// level's rise (resolved from the library's actual delay cell).
func masterSlaveLevels(lib *netlist.Library, margin float64) int {
	var c2q, setup float64
	for _, c := range lib.Cells {
		if c.Kind != netlist.KindLatch {
			continue
		}
		if a := c.Arc(c.Seq.ClockPin, c.Seq.Q); a != nil {
			c2q = math.Max(c2q, math.Max(a.Rise.Worst, a.Fall.Worst))
		}
		setup = math.Max(setup, c.Setup.Worst)
	}
	level, err := handshake.DelayLevel(lib)
	if err != nil || level <= 0 {
		return 2
	}
	n := int(math.Ceil((c2q + setup) * margin / level))
	if n < 2 {
		n = 2
	}
	return n
}

// muxedSpec builds an 8-tap spec spreading tapScales around the sized
// length.
func muxedSpec(base int) handshake.DelayElementSpec {
	taps := make([]int, 0, len(tapScales))
	last := 0
	for _, s := range tapScales {
		t := int(math.Ceil(float64(base) * s))
		if t <= last {
			t = last + 1
		}
		taps = append(taps, t)
		last = t
	}
	return handshake.DelayElementSpec{Levels: taps[len(taps)-1], Taps: taps}
}
