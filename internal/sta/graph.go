// Package sta is the static timing analysis engine of the flow. It plays
// the role PrimeTime plays in the paper: it sizes the matched delay elements
// (§3.2.5), checks setup at latch inputs, and times the cyclic asynchronous
// controller network after loop breaking (§4.6.1).
//
// The engine builds a pin-level timing graph (net arcs plus cell arcs with
// function-derived unateness), topologically sorts it — honouring
// timing-disabled arcs and optionally auto-breaking remaining back-edges the
// way a synchronous STA tool arbitrarily cuts combinational cycles — and
// propagates rise/fall arrival times for late (max) and early (min)
// analysis at a chosen corner.
package sta

import (
	"fmt"

	"desync/internal/logic"
	"desync/internal/netlist"
)

// ArcKey identifies one cell timing arc for disabling (§4.6.1).
type ArcKey struct {
	Inst string
	From string
	To   string
}

// Unateness of a cell arc, derived from the cell function.
type unate uint8

const (
	positiveUnate unate = iota
	negativeUnate
	nonUnate
)

// node identities: instance pin or module port.
type pinKey struct {
	inst *netlist.Inst // nil for ports
	pin  string
}

func (k pinKey) String() string {
	if k.inst == nil {
		return k.pin
	}
	return k.inst.Name + "/" + k.pin
}

// edge is one timing arc, stored in its tail node's row.
type edge struct {
	to         int32
	arc        int32   // index into the tail instance's cell Arcs; -1 for net arcs
	rise, fall float64 // delay to a rising/falling transition at the head
	sense      unate
}

// instSlot places one instance's pins in the dense node table.
type instSlot struct {
	in   *netlist.Inst // nil for InstIDs the graph does not hold
	cell *netlist.CellDef
	base int32 // pinNode offset of the instance's first pin slot
}

// Graph is a timing graph over a flat module at a fixed corner.
//
// Node ids are dense: instance pin slot s (its index in the cell's Pins) is
// node pinNode[insts[inst.ID()].base+s], so building and querying the graph
// hashes no strings. Ports, and pins missing from their cell's pin list,
// live in the small other map. Out-edges are compressed rows: node v's arcs
// are edges[first[v]:first[v+1]], in insertion order.
type Graph struct {
	Module *netlist.Module
	Corner netlist.Corner

	keys    []pinKey // node id → instance pin or port
	insts   []instSlot
	pinNode []int32 // -1 for pins that are not nodes
	other   map[pinKey]int32

	first []int32
	edges []edge

	starts []int // startpoints: input ports, sequential outputs, tie outputs
	ends   []int // endpoints: output ports, sequential data/control inputs

	latchTransparent bool

	// AutoBroken lists arcs removed by back-edge breaking when the build
	// options allowed it.
	AutoBroken []ArcKey

	order []int32 // topological order
}

// Options configures graph construction.
type Options struct {
	Corner netlist.Corner
	// Disabled arcs (set_disable_timing) are excluded from the graph.
	Disabled map[ArcKey]bool
	// AutoBreakLoops removes back-edges found by DFS instead of failing,
	// mimicking the arbitrary cuts a synchronous STA tool makes (§4.6).
	AutoBreakLoops bool
	// UseWireDelays adds annotated net delays (post-layout analysis).
	UseWireDelays bool
	// NoVariability ignores per-instance delay factors.
	NoVariability bool
	// LatchTransparent includes latch D→Q arcs (time borrowing through
	// transparent latches). Off by default: pipelined latch rings would
	// otherwise be combinational cycles; standard register-bounded analysis
	// treats each latch as a path boundary.
	LatchTransparent bool
}

// EffectiveFactor is the delay multiplier an instance contributes to all of
// its timing arcs: its DelayFactor, with the zero value meaning nominal.
// Every consumer that prices an instance's arcs (the graph build, the lint
// engine's delay-element audit) must agree on this defaulting.
func EffectiveFactor(in *netlist.Inst) float64 {
	if in.DelayFactor == 0 {
		return 1
	}
	return in.DelayFactor
}

// cellArcs is what Build derives once per cell: each arc's unateness and
// the slots of its pins in the cell's pin list (-1 when absent).
type cellArcs struct {
	sense    []unate
	from, to []int32
}

// builder holds Build's per-call scratch.
type builder struct {
	g     *Graph
	cells map[*netlist.CellDef]*cellArcs
	tails []int32 // tail node of each g.edges entry, until rows() sorts them
}

// Build constructs the timing graph for a flat module. Node ids are
// assigned on first use: ports, then each instance's arcs and pins in
// module order, then net arcs.
func Build(m *netlist.Module, opts Options) (*Graph, error) {
	g := &Graph{Module: m, Corner: opts.Corner, latchTransparent: opts.LatchTransparent}

	// Size the dense table: one slot per InstID, one node per cell pin.
	maxID, pins, arcs := -1, 0, 0
	for _, in := range m.Insts {
		if in.Sub != nil {
			return nil, fmt.Errorf("sta: module %s not flat (instance %s)", m.Name, in.Name)
		}
		maxID = max(maxID, int(in.ID()))
		pins += len(in.Cell.Pins)
		arcs += len(in.Cell.Arcs)
	}
	for _, n := range m.Nets {
		arcs += len(n.Sinks)
	}
	g.insts = make([]instSlot, maxID+1)
	g.pinNode = make([]int32, pins)
	for i := range g.pinNode {
		g.pinNode[i] = -1
	}
	var base int32
	for _, in := range m.Insts {
		g.insts[in.ID()] = instSlot{in: in, cell: in.Cell, base: base}
		base += int32(len(in.Cell.Pins))
	}
	g.keys = make([]pinKey, 0, len(m.Ports)+pins)
	g.other = map[pinKey]int32{}
	g.edges = make([]edge, 0, arcs)
	b := &builder{g: g, cells: map[*netlist.CellDef]*cellArcs{}, tails: make([]int32, 0, arcs)}
	disabled := resolveDisabled(m, opts.Disabled)

	// Ports.
	for _, p := range m.Ports {
		n := int(b.otherID(pinKey{pin: p.Name}))
		switch p.Dir {
		case netlist.In:
			g.starts = append(g.starts, n)
		case netlist.Out:
			g.ends = append(g.ends, n)
		}
	}

	// Cell arcs.
	for _, in := range m.Insts {
		c := in.Cell
		ca := b.cell(c)
		factor := EffectiveFactor(in)
		if opts.NoVariability {
			factor = 1
		}
		var off []bool
		if disabled != nil {
			off = disabled[in.ID()]
		}
		seqStart := c.IsSequential()
		for ai := range c.Arcs {
			if off != nil && off[ai] {
				continue
			}
			a := &c.Arcs[ai]
			// Sequential cells: clock/enable/async→Q arcs start new timing
			// paths, they do not extend arriving ones — except latch D→Q,
			// which is a real combinational path while transparent.
			if seqStart && c.Kind != netlist.KindCElem && c.Kind != netlist.KindGC {
				transparent := opts.LatchTransparent && c.Kind == netlist.KindLatch && a.From == "D"
				if c.Seq != nil && !transparent {
					continue
				}
			}
			from := b.pinID(in, ca.from[ai], a.From)
			to := b.pinID(in, ca.to[ai], a.To)
			b.add(from, edge{
				to:    to,
				arc:   int32(ai),
				rise:  a.Rise.At(opts.Corner) * factor,
				fall:  a.Fall.At(opts.Corner) * factor,
				sense: ca.sense[ai],
			})
		}
		// Start/end classification.
		for s := range c.Pins {
			p := &c.Pins[s]
			if p.Dir == netlist.Out {
				if seqStart || c.Kind == netlist.KindTie {
					g.starts = append(g.starts, int(b.pinID(in, int32(s), p.Name)))
				}
				continue
			}
			if seqStart {
				// Every input of a sequential cell is a timing endpoint
				// (data: setup; clock/enable: path target for skew).
				g.ends = append(g.ends, int(b.pinID(in, int32(s), p.Name)))
			}
		}
	}

	// Net arcs.
	for _, n := range m.Nets {
		if !n.HasDriver() {
			continue
		}
		var w float64
		if opts.UseWireDelays {
			w = n.Wire.At(opts.Corner)
		}
		from := b.refID(n.Driver)
		for _, s := range n.Sinks {
			b.add(from, edge{to: b.refID(s), arc: -1, rise: w, fall: w, sense: positiveUnate})
		}
	}

	b.rows()
	if err := g.sort(opts.AutoBreakLoops); err != nil {
		return nil, err
	}
	return g, nil
}

// resolveDisabled turns the disabled arc names into per-instance marks over
// cell arc indices (nil when nothing is disabled).
func resolveDisabled(m *netlist.Module, disabled map[ArcKey]bool) map[netlist.InstID][]bool {
	var out map[netlist.InstID][]bool
	for k, on := range disabled {
		if !on {
			continue
		}
		in := m.Inst(k.Inst)
		if in == nil || in.Cell == nil {
			continue
		}
		for ai, a := range in.Cell.Arcs {
			if a.From != k.From || a.To != k.To {
				continue
			}
			if out == nil {
				out = map[netlist.InstID][]bool{}
			}
			marks := out[in.ID()]
			if marks == nil {
				marks = make([]bool, len(in.Cell.Arcs))
				out[in.ID()] = marks
			}
			marks[ai] = true
		}
	}
	return out
}

func (b *builder) newNode(k pinKey) int32 {
	id := int32(len(b.g.keys))
	b.g.keys = append(b.g.keys, k)
	return id
}

// otherID returns the node of a port or of a pin outside the dense table.
func (b *builder) otherID(k pinKey) int32 {
	if id, ok := b.g.other[k]; ok {
		return id
	}
	id := b.newNode(k)
	b.g.other[k] = id
	return id
}

// pinID returns the node of pin slot s of a held instance.
func (b *builder) pinID(in *netlist.Inst, s int32, name string) int32 {
	if s < 0 {
		return b.otherID(pinKey{in, name})
	}
	p := &b.g.pinNode[b.g.insts[in.ID()].base+s]
	if *p < 0 {
		*p = b.newNode(pinKey{in, in.Cell.Pins[s].Name})
	}
	return *p
}

// refID returns the node of a net's driver or sink.
func (b *builder) refID(r netlist.PinRef) int32 {
	if !b.g.holds(r.Inst) {
		return b.otherID(pinKey{r.Inst, r.Pin})
	}
	return b.pinID(r.Inst, pinSlot(r.Inst.Cell, r.Pin), r.Pin)
}

func (b *builder) add(from int32, e edge) {
	b.tails = append(b.tails, from)
	b.g.edges = append(b.g.edges, e)
}

// cell returns the cell's arc senses and pin slots, deriving them on first
// use.
func (b *builder) cell(c *netlist.CellDef) *cellArcs {
	if ca := b.cells[c]; ca != nil {
		return ca
	}
	ca := &cellArcs{
		sense: arcSenses(c),
		from:  make([]int32, len(c.Arcs)),
		to:    make([]int32, len(c.Arcs)),
	}
	for i, a := range c.Arcs {
		ca.from[i], ca.to[i] = pinSlot(c, a.From), pinSlot(c, a.To)
	}
	b.cells[c] = ca
	return ca
}

// rows sorts the edges, kept in insertion order, into per-node rows.
func (b *builder) rows() {
	g := b.g
	n := len(g.keys)
	first := make([]int32, n+1)
	for _, t := range b.tails {
		first[t+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	edges := make([]edge, len(g.edges))
	for i, t := range b.tails {
		edges[first[t]] = g.edges[i]
		first[t]++
	}
	// Each first[v] now points at the end of row v: shift back one node.
	copy(first[1:], first[:n])
	first[0] = 0
	g.first, g.edges = first, edges
}

// pinSlot returns the index of the named pin in the cell's pin list, or -1.
func pinSlot(c *netlist.CellDef, pin string) int32 {
	for i := range c.Pins {
		if c.Pins[i].Name == pin {
			return int32(i)
		}
	}
	return -1
}

// arcSenses derives per-arc unateness from the cell's functions by
// exhaustive evaluation; anything not provably unate is non-unate.
func arcSenses(c *netlist.CellDef) []unate {
	out := make([]unate, len(c.Arcs))
	for i, a := range c.Arcs {
		out[i] = nonUnate
		fn := c.Functions[a.To]
		if fn == nil {
			continue
		}
		vars := fn.Vars()
		var others []string
		found := false
		for _, v := range vars {
			if v == a.From {
				found = true
			} else {
				others = append(others, v)
			}
		}
		if !found || len(others) > 12 {
			continue
		}
		pos, neg := true, true
		for mask := 0; mask < 1<<len(others); mask++ {
			env := map[string]logic.V{}
			for i, v := range others {
				env[v] = logic.FromBool(mask>>i&1 == 1)
			}
			env[a.From] = logic.L
			lo := fn.Eval(env)
			env[a.From] = logic.H
			hi := fn.Eval(env)
			if lo == logic.H && hi == logic.L {
				pos = false
			}
			if lo == logic.L && hi == logic.H {
				neg = false
			}
		}
		switch {
		case pos && !neg:
			out[i] = positiveUnate
		case neg && !pos:
			out[i] = negativeUnate
		}
	}
	return out
}

// sort computes a topological order, auto-breaking or rejecting cycles.
func (g *Graph) sort(autoBreak bool) error {
	n := len(g.keys)
	// Iterative DFS to find back edges. Each node is expanded once, so each
	// edge is visited once.
	color := make([]uint8, n) // 0 white, 1 grey, 2 black
	type frame struct {
		node int32
		ei   int32 // next edge of the node's row
	}
	var stack []frame
	postorder := make([]int32, 0, n)
	var cut []bool // edges removed as back edges

	for root := int32(0); int(root) < n; root++ {
		if color[root] != 0 {
			continue
		}
		stack = append(stack[:0], frame{root, g.first[root]})
		color[root] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ei < g.first[f.node+1] {
				ei := f.ei
				e := &g.edges[ei]
				f.ei++
				switch color[e.to] {
				case 0:
					color[e.to] = 1
					stack = append(stack, frame{e.to, g.first[e.to]})
				case 1:
					// Back edge: a timing loop.
					if !autoBreak {
						return fmt.Errorf("sta: timing loop through %s -> %s (use set_disable_timing or AutoBreakLoops)",
							g.keys[f.node], g.keys[e.to])
					}
					if cut == nil {
						cut = make([]bool, len(g.edges))
					}
					cut[ei] = true
					g.AutoBroken = append(g.AutoBroken, g.arcKey(f.node, e))
				}
				continue
			}
			color[f.node] = 2
			postorder = append(postorder, f.node)
			stack = stack[:len(stack)-1]
		}
	}
	// Remove broken edges for good, keeping each row's order.
	if cut != nil {
		var w int32
		for v := 0; v < n; v++ {
			lo, hi := g.first[v], g.first[v+1]
			g.first[v] = w
			for i := lo; i < hi; i++ {
				if !cut[i] {
					g.edges[w] = g.edges[i]
					w++
				}
			}
		}
		g.first[n] = w
		g.edges = g.edges[:w]
	}
	// Reverse postorder is a topological order.
	g.order = postorder
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		g.order[i], g.order[j] = g.order[j], g.order[i]
	}
	return nil
}

// arcKey names an edge for reports.
func (g *Graph) arcKey(from int32, e *edge) ArcKey {
	if e.arc >= 0 {
		in := g.keys[from].inst
		a := &in.Cell.Arcs[e.arc]
		return ArcKey{Inst: in.Name, From: a.From, To: a.To}
	}
	// Net arc: identify by endpoint names.
	return ArcKey{Inst: "(net)", From: g.keys[from].String(), To: g.keys[e.to].String()}
}

// holds reports whether inst is one of the instances the graph was built
// over.
func (g *Graph) holds(inst *netlist.Inst) bool {
	if inst == nil {
		return false
	}
	id := int(inst.ID())
	return id >= 0 && id < len(g.insts) && g.insts[id].in == inst
}

// NodeID returns the graph node for an instance pin, or -1.
func (g *Graph) NodeID(inst *netlist.Inst, pin string) int {
	if g.holds(inst) {
		sl := g.insts[inst.ID()]
		if s := pinSlot(sl.cell, pin); s >= 0 {
			return int(g.pinNode[sl.base+s])
		}
	}
	if i, ok := g.other[pinKey{inst, pin}]; ok {
		return int(i)
	}
	return -1
}

// PortID returns the graph node for a module port, or -1.
func (g *Graph) PortID(port string) int {
	if i, ok := g.other[pinKey{pin: port}]; ok {
		return int(i)
	}
	return -1
}

// NodeName renders a node id for reports.
func (g *Graph) NodeName(id int) string { return g.keys[id].String() }

// EdgeInfo is an exported view of one timing arc for external propagation
// engines (statistical STA). Delay is the worse of the rise/fall values.
type EdgeInfo struct {
	From, To int
	Delay    float64
	IsNet    bool
	// Inst is the owning instance for cell arcs (nil for net arcs), so
	// external engines can apply per-instance models.
	Inst *netlist.Inst
}

// TopoOrder returns the node ids in topological order.
func (g *Graph) TopoOrder() []int {
	out := make([]int, len(g.order))
	for i, v := range g.order {
		out[i] = int(v)
	}
	return out
}

// StartNodes returns the startpoint ids (inputs, sequential outputs).
func (g *Graph) StartNodes() []int { return append([]int(nil), g.starts...) }

// out returns node v's row of out-edges.
func (g *Graph) out(v int) []edge { return g.edges[g.first[v]:g.first[v+1]] }

// OutEdges calls visit for each arc leaving node id.
func (g *Graph) OutEdges(id int, visit func(EdgeInfo)) {
	for _, e := range g.out(id) {
		d := e.rise
		if e.fall > d {
			d = e.fall
		}
		visit(EdgeInfo{From: id, To: int(e.to), Delay: d, IsNet: e.arc < 0, Inst: g.keys[id].inst})
	}
}

// NodeCount returns the number of timing nodes.
func (g *Graph) NodeCount() int { return len(g.keys) }
