// Package handshake builds the asynchronous control elements of the
// desynchronization flow: the 4-phase semi-decoupled latch controllers
// (§2.2, §3.1.3), multi-input C-Muller rendezvous trees (§3.1.5), and the
// asymmetric matched delay elements with optional multiplexed taps (§2.4.4,
// §3.1.4).
//
// The controller is re-derived from the semi-decoupled protocol (the
// thesis' exact gate netlist is not recoverable from the text; see
// DESIGN.md §5) and maps onto three hazard-free complex gates:
//
//	g  = gC(set: ao·ri̅ (+rst for masters), reset: ao̅·ri)   — latch enable
//	ai = ri · g̅                                            — input ack
//	ro = gC(set: g̅·ao̅, reset: g·ao, reset-to-0)            — output request
//
// Cycle: ri+ → g− (capture) → ai+ and ro+ ; ri− → ai− ; ao+ → g+ (reopen)
// → ro− ; ao− → ready. Masters reset transparent (g=1); slaves reset opaque
// (g=0) holding the registers' reset state, and their ro fires as soon as
// reset releases, announcing that data — which is what boots the network.
package handshake

import (
	"fmt"
	"strconv"

	"desync/internal/netlist"
)

// DelayCellName is the per-level cell of the asymmetric matched delay
// elements (the AND of Fig 2.9). It is the single owner of that choice:
// the element builder, the flow's sizing and the under-margin audit all
// resolve the per-level delay through DelayLevel, so they cannot disagree
// about what one chain level is worth on any library variant.
const DelayCellName = "AND2X1"

// DelayLevel returns the worst-corner rise delay of one matched-element
// chain level — the quantum every delay-element sizing computation uses.
func DelayLevel(lib *netlist.Library) (float64, error) {
	c, err := lib.Cell(DelayCellName)
	if err != nil {
		return 0, fmt.Errorf("handshake: delay-element cell: %w", err)
	}
	arc := c.Arc("A", "Z")
	if arc == nil {
		return 0, fmt.Errorf("handshake: delay-element cell %s has no A->Z arc", DelayCellName)
	}
	return arc.Rise.At(netlist.Worst), nil
}

// ControllerPorts names the nets a latch controller connects to.
type ControllerPorts struct {
	Ri, Ai, Ro, Ao, G, Rst *netlist.Net
}

// AddController instantiates one latch controller into m with the given
// instance-name prefix. master selects the reset phase (transparent vs
// opaque). All gates are marked SizeOnly (§4.6.2) and tagged Origin "ctrl".
func AddController(m *netlist.Module, lib *netlist.Library, prefix string, master bool, p ControllerPorts) error {
	gcell := "CGSX1"
	if master {
		gcell = "CGMX1"
	}
	cells := map[string]*netlist.CellDef{}
	for _, name := range []string{gcell, "CROX1", "CBX1", "ANDN3X1"} {
		c, err := lib.Cell(name)
		if err != nil {
			return fmt.Errorf("handshake: controller %s: %w", prefix, err)
		}
		cells[name] = c
	}
	gInst := m.AddInst(prefix+"/g", cells[gcell])
	roInst := m.AddInst(prefix+"/ro", cells["CROX1"])
	bInst := m.AddInst(prefix+"/b", cells["CBX1"])
	aiInst := m.AddInst(prefix+"/ai", cells["ANDN3X1"])
	for _, in := range []*netlist.Inst{gInst, roInst, bInst, aiInst} {
		in.SizeOnly = true
		in.Origin = "ctrl"
	}
	bNet := m.AddNet(prefix + "/bq")
	type conn struct {
		inst *netlist.Inst
		pin  string
		net  *netlist.Net
	}
	conns := []conn{
		{gInst, "A", p.Ao}, {gInst, "B", p.Ri}, {gInst, "R", p.Rst}, {gInst, "Q", p.G},
		{roInst, "A", p.G}, {roInst, "B", p.Ao}, {roInst, "R", p.Rst}, {roInst, "Q", p.Ro},
		{bInst, "A", p.G}, {bInst, "B", p.Ri}, {bInst, "Q", bNet},
		{aiInst, "A", p.Ri}, {aiInst, "B", p.G}, {aiInst, "C", bNet}, {aiInst, "Z", p.Ai},
	}
	for _, c := range conns {
		if err := m.Connect(c.inst, c.pin, c.net); err != nil {
			return fmt.Errorf("handshake: controller %s: %w", prefix, err)
		}
	}
	return nil
}

// ControllerDisabledArcs returns the set_disable_timing arcs that break the
// asynchronous timing loops through the controllers (§4.6.1, Fig 4.5c).
// Cutting the acknowledge input of the latch-enable element and both data
// inputs of the request element leaves the network acyclic: requests still
// time end-to-end into g, b and ai through their ri pins, while the fully
// cut request gate is constrained through its reset pin and the explicit
// min/max point delays the tool emits — exactly the situation the paper
// describes ("this specific gate can be constrained through its other
// pins").
func ControllerDisabledArcs(prefix string) [][3]string {
	return [][3]string{
		{prefix + "/g", "A", "Q"},  // ao -> g
		{prefix + "/ro", "A", "Q"}, // g  -> ro
		{prefix + "/ro", "B", "Q"}, // ao -> ro
	}
}

// IsControlOrigin reports whether an instance Origin tag marks a cell
// created by a clock-replacement stage (controllers and rendezvous trees,
// delay elements, completion networks, enable-tree buffers, the two-phase
// clock generator). Such cells are exempt from the synchronous-netlist
// rules — combinational-loop and dead-cone checks — that the lint engine
// applies to the datapath.
func IsControlOrigin(origin string) bool {
	switch origin {
	case "ctrl", "delem", "cdet", "cts", "tpgen":
		return true
	}
	return false
}

// ControlRegion parses the "G<id>_" prefix every control-network net and
// instance name carries, returning the region id. Unlike Origin tags, names
// survive a Verilog write/read round trip, so this is the test standalone
// tools use on re-imported netlists.
func ControlRegion(name string) (int, bool) {
	if len(name) < 3 || name[0] != 'G' {
		return 0, false
	}
	i, g := 1, 0
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		g = g*10 + int(name[i]-'0')
		i++
	}
	if i == 1 || i >= len(name) || name[i] != '_' {
		return 0, false
	}
	return g, true
}

// AddCTree builds a C-Muller rendezvous over the given input nets, writing
// the result to out. A single input is wired through directly (the caller
// passes out == inputs[0] in that case — AddCTree rejects it). Trees use
// C3X1 and C2X1 cells; the paper synthesizes 2..10-input C elements, we
// compose them (§3.1.5). Returns the number of cells created.
func AddCTree(m *netlist.Module, lib *netlist.Library, prefix string, inputs []*netlist.Net, out *netlist.Net) (int, error) {
	if len(inputs) < 2 {
		return 0, fmt.Errorf("handshake: C tree needs ≥2 inputs, got %d", len(inputs))
	}
	cells := 0
	level := append([]*netlist.Net(nil), inputs...)
	for len(level) > 1 {
		var next []*netlist.Net
		for i := 0; i < len(level); {
			rem := len(level) - i
			var take int
			switch {
			case rem == 1:
				next = append(next, level[i])
				i++
				continue
			case rem == 3 || rem > 4:
				take = 3
			default:
				take = 2
			}
			cellName := "C2X1"
			if take == 3 {
				cellName = "C3X1"
			}
			dst := out
			if !(len(next) == 0 && rem == take) {
				dst = m.AddNet(prefix + "/t" + strconv.Itoa(cells))
			}
			cd, err := lib.Cell(cellName)
			if err != nil {
				return cells, fmt.Errorf("handshake: C tree %s: %w", prefix, err)
			}
			c := m.AddInst(prefix+"/c"+strconv.Itoa(cells), cd)
			c.SizeOnly = true
			c.Origin = "ctrl"
			cells++
			pins := []string{"A", "B", "C"}
			for k := 0; k < take; k++ {
				if err := m.Connect(c, pins[k], level[i+k]); err != nil {
					return cells, err
				}
			}
			if err := m.Connect(c, "Q", dst); err != nil {
				return cells, err
			}
			next = append(next, dst)
			i += take
		}
		level = next
	}
	return cells, nil
}

// DelayElementSpec describes a matched delay element.
type DelayElementSpec struct {
	// Levels is the AND-chain depth of the longest tap.
	Levels int
	// Taps, when non-nil, lists chain positions (1..Levels, ascending, last
	// == Levels) selectable through a multiplexer tree driven by select
	// nets; nil builds a fixed-length element.
	Taps []int
}

// AddDelayElement builds an asymmetric (slow-rise, fast-fall) delay element
// per Fig 2.9: a chain of AND gates all gated by the primary input, so a
// rising edge ripples through every level while a falling edge cuts through
// the last gate. When spec.Taps is set, an 8-to-1 (or narrower) multiplexer
// tree selects the effective length using the sel nets (LSB first,
// len(sel) = ceil(log2(len(Taps)))). Cells are tagged Origin "delem".
func AddDelayElement(m *netlist.Module, lib *netlist.Library, prefix string, in, out, rst *netlist.Net, sel []*netlist.Net, spec DelayElementSpec) error {
	if spec.Levels < 1 {
		return fmt.Errorf("handshake: delay element needs ≥1 level")
	}
	and, err := lib.Cell(DelayCellName)
	if err != nil {
		return fmt.Errorf("handshake: delay element %s: %w", prefix, err)
	}
	connect := func(in *netlist.Inst, pin string, n *netlist.Net) error {
		if err := m.Connect(in, pin, n); err != nil {
			return fmt.Errorf("handshake: delay element %s: %w", prefix, err)
		}
		return nil
	}
	taps := map[int]*netlist.Net{}
	prev := in
	for lvl := 1; lvl <= spec.Levels; lvl++ {
		dst := m.AddNet(prefix + "/d" + strconv.Itoa(lvl))
		g := m.AddInst(prefix+"/a"+strconv.Itoa(lvl), and)
		g.SizeOnly = true
		g.Origin = "delem"
		for _, c := range []struct {
			pin string
			net *netlist.Net
		}{{"A", prev}, {"B", in}, {"Z", dst}} {
			if err := connect(g, c.pin, c.net); err != nil {
				return err
			}
		}
		prev = dst
		taps[lvl] = dst
	}
	_ = rst // reset is implicit: requests are low during reset, so the chain drains

	if spec.Taps == nil {
		// Fixed element: buffer the last level onto out.
		buf, err := lib.Cell("BUFX2")
		if err != nil {
			return fmt.Errorf("handshake: delay element %s: %w", prefix, err)
		}
		b := m.AddInst(prefix+"/out", buf)
		b.SizeOnly = true
		b.Origin = "delem"
		if err := connect(b, "A", prev); err != nil {
			return err
		}
		return connect(b, "Z", out)
	}

	// Validate taps.
	last := 0
	var tapNets []*netlist.Net
	for _, t := range spec.Taps {
		if t <= last || t > spec.Levels {
			return fmt.Errorf("handshake: bad tap list %v", spec.Taps)
		}
		last = t
		tapNets = append(tapNets, taps[t])
	}
	if spec.Taps[len(spec.Taps)-1] != spec.Levels {
		return fmt.Errorf("handshake: last tap must equal Levels")
	}
	need := bitsFor(len(tapNets))
	if len(sel) < need {
		return fmt.Errorf("handshake: %d taps need %d select nets, got %d", len(tapNets), need, len(sel))
	}

	// Mux tree: level k collapses pairs using sel[k].
	mux, err := lib.Cell("MUX2X1")
	if err != nil {
		return fmt.Errorf("handshake: delay element %s: %w", prefix, err)
	}
	muxes := 0
	level := tapNets
	for k := 0; len(level) > 1; k++ {
		var next []*netlist.Net
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			dst := out
			if !(len(next) == 0 && len(level) == 2) {
				dst = m.AddNet(prefix + "/m" + strconv.Itoa(muxes))
			}
			g := m.AddInst(prefix+"/mx"+strconv.Itoa(muxes), mux)
			g.SizeOnly = true
			g.Origin = "delem"
			muxes++
			for _, c := range []struct {
				pin string
				net *netlist.Net
			}{{"A", level[i]}, {"B", level[i+1]}, {"S", sel[k]}, {"Z", dst}} {
				// A takes the shorter tap (sel bit 0), B the longer.
				if err := connect(g, c.pin, c.net); err != nil {
					return err
				}
			}
			next = append(next, dst)
		}
		level = next
	}
	return nil
}

// AddSymmetricDelayElement builds the 2-phase-handshake variant of the
// matched element (§2.4.4, §3.1.4): a buffer chain with equal rise and fall
// delay, as used when requests are transition-encoded rather than 4-phase
// pulses ("in the case of symmetric delay elements the AND gates are
// substituted by buffers or pairs of inverters").
func AddSymmetricDelayElement(m *netlist.Module, lib *netlist.Library, prefix string, in, out *netlist.Net, levels int) error {
	if levels < 1 {
		return fmt.Errorf("handshake: symmetric delay element needs ≥1 level")
	}
	buf, err := lib.Cell("BUFX1")
	if err != nil {
		return fmt.Errorf("handshake: symmetric delay element %s: %w", prefix, err)
	}
	prev := in
	for i := 1; i <= levels; i++ {
		dst := out
		if i != levels {
			dst = m.AddNet(prefix + "/s" + strconv.Itoa(i))
		}
		g := m.AddInst(prefix+"/b"+strconv.Itoa(i), buf)
		g.SizeOnly = true
		g.Origin = "delem"
		if err := m.Connect(g, "A", prev); err != nil {
			return fmt.Errorf("handshake: symmetric delay element %s: %w", prefix, err)
		}
		if err := m.Connect(g, "Z", dst); err != nil {
			return fmt.Errorf("handshake: symmetric delay element %s: %w", prefix, err)
		}
		prev = dst
	}
	return nil
}

func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
