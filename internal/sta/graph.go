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

type edge struct {
	to         int
	rise, fall float64 // delay to a rising/falling transition at the head
	sense      unate
	key        ArcKey // zero for net arcs
	isNet      bool
}

// Graph is a timing graph over a flat module at a fixed corner.
type Graph struct {
	Module *netlist.Module
	Corner netlist.Corner

	keys  []pinKey
	idOf  map[pinKey]int
	out   [][]edge
	indeg []int

	starts []int // startpoints: input ports, sequential outputs, tie outputs
	ends   []int // endpoints: output ports, sequential data/control inputs

	// AutoBroken lists arcs removed by back-edge breaking when the build
	// options allowed it.
	AutoBroken []ArcKey

	order []int // topological order
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
	// Parallelism bounds the workers RegionDelays uses for per-region
	// extraction; 0 means GOMAXPROCS. Results are identical at any value.
	Parallelism int
}

// Build constructs the timing graph for a flat module.
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

func Build(m *netlist.Module, opts Options) (*Graph, error) {
	g := &Graph{Module: m, Corner: opts.Corner, idOf: map[pinKey]int{}}

	id := func(k pinKey) int {
		if i, ok := g.idOf[k]; ok {
			return i
		}
		i := len(g.keys)
		g.idOf[k] = i
		g.keys = append(g.keys, k)
		g.out = append(g.out, nil)
		return i
	}

	// Ports.
	for _, p := range m.Ports {
		n := id(pinKey{pin: p.Name})
		switch p.Dir {
		case netlist.In:
			g.starts = append(g.starts, n)
		case netlist.Out:
			g.ends = append(g.ends, n)
		}
	}

	// Cell arcs.
	for _, in := range m.Insts {
		if in.Sub != nil {
			return nil, fmt.Errorf("sta: module %s not flat (instance %s)", m.Name, in.Name)
		}
		c := in.Cell
		factor := EffectiveFactor(in)
		if opts.NoVariability {
			factor = 1
		}
		senses := arcSenses(c)
		seqStart := c.IsSequential()
		for _, a := range c.Arcs {
			key := ArcKey{in.Name, a.From, a.To}
			if opts.Disabled[key] {
				continue
			}
			// Sequential cells: clock/enable/async→Q arcs start new timing
			// paths, they do not extend arriving ones — except latch D→Q,
			// which is a real combinational path while transparent.
			if seqStart && c.Kind != netlist.KindCElem && c.Kind != netlist.KindGC {
				transparent := opts.LatchTransparent && c.Kind == netlist.KindLatch && a.From == "D"
				if c.Seq != nil && !transparent {
					continue
				}
			}
			from := id(pinKey{in, a.From})
			to := id(pinKey{in, a.To})
			g.out[from] = append(g.out[from], edge{
				to:    to,
				rise:  a.Rise.At(opts.Corner) * factor,
				fall:  a.Fall.At(opts.Corner) * factor,
				sense: senses[[2]string{a.From, a.To}],
				key:   key,
			})
		}
		// Start/end classification.
		for _, p := range c.Pins {
			k := pinKey{in, p.Name}
			if p.Dir == netlist.Out {
				if seqStart || c.Kind == netlist.KindTie {
					g.starts = append(g.starts, id(k))
				}
				continue
			}
			if seqStart {
				// Every input of a sequential cell is a timing endpoint
				// (data: setup; clock/enable: path target for skew).
				g.ends = append(g.ends, id(k))
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
		from := id(pinKey{n.Driver.Inst, n.Driver.Pin})
		for _, s := range n.Sinks {
			to := id(pinKey{s.Inst, s.Pin})
			g.out[from] = append(g.out[from], edge{to: to, rise: w, fall: w, sense: positiveUnate, isNet: true})
		}
	}

	if err := g.sort(opts.AutoBreakLoops); err != nil {
		return nil, err
	}
	return g, nil
}

// arcSenses derives per-arc unateness from the cell's functions by
// exhaustive evaluation; anything not provably unate is non-unate.
func arcSenses(c *netlist.CellDef) map[[2]string]unate {
	out := map[[2]string]unate{}
	for _, a := range c.Arcs {
		out[[2]string{a.From, a.To}] = nonUnate
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
			out[[2]string{a.From, a.To}] = positiveUnate
		case neg && !pos:
			out[[2]string{a.From, a.To}] = negativeUnate
		}
	}
	return out
}

// sort computes a topological order, auto-breaking or rejecting cycles.
func (g *Graph) sort(autoBreak bool) error {
	n := len(g.keys)
	// Iterative DFS to find back edges.
	color := make([]uint8, n) // 0 white, 1 grey, 2 black
	type frame struct {
		node int
		ei   int
	}
	var stack []frame
	var postorder []int
	removed := map[*edge]bool{}

	for root := 0; root < n; root++ {
		if color[root] != 0 {
			continue
		}
		stack = append(stack[:0], frame{root, 0})
		color[root] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ei < len(g.out[f.node]) {
				e := &g.out[f.node][f.ei]
				f.ei++
				if removed[e] {
					continue
				}
				switch color[e.to] {
				case 0:
					color[e.to] = 1
					stack = append(stack, frame{e.to, 0})
				case 1:
					// Back edge: a timing loop.
					if !autoBreak {
						return fmt.Errorf("sta: timing loop through %s -> %s (use set_disable_timing or AutoBreakLoops)",
							g.keys[f.node], g.keys[e.to])
					}
					removed[e] = true
					g.AutoBroken = append(g.AutoBroken, arcKeyFor(g, f.node, e))
				}
				continue
			}
			color[f.node] = 2
			postorder = append(postorder, f.node)
			stack = stack[:len(stack)-1]
		}
	}
	// Remove broken edges for good.
	if len(removed) > 0 {
		for v := range g.out {
			kept := g.out[v][:0]
			for i := range g.out[v] {
				if !removed[&g.out[v][i]] {
					kept = append(kept, g.out[v][i])
				}
			}
			g.out[v] = kept
		}
	}
	// Reverse postorder is a topological order.
	g.order = make([]int, n)
	for i, v := range postorder {
		g.order[n-1-i] = v
	}
	return nil
}

func arcKeyFor(g *Graph, from int, e *edge) ArcKey {
	if e.key != (ArcKey{}) {
		return e.key
	}
	// Net arc: identify by endpoint names.
	return ArcKey{Inst: "(net)", From: g.keys[from].String(), To: g.keys[e.to].String()}
}

// NodeID returns the graph node for an instance pin, or -1.
func (g *Graph) NodeID(inst *netlist.Inst, pin string) int {
	if i, ok := g.idOf[pinKey{inst, pin}]; ok {
		return i
	}
	return -1
}

// PortID returns the graph node for a module port, or -1.
func (g *Graph) PortID(port string) int {
	if i, ok := g.idOf[pinKey{pin: port}]; ok {
		return i
	}
	return -1
}

// NodeName renders a node id for reports.
func (g *Graph) NodeName(id int) string { return g.keys[id].String() }

// nodeInst returns the instance of a node (nil for ports).
func (g *Graph) nodeInst(id int) *netlist.Inst { return g.keys[id].inst }

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
func (g *Graph) TopoOrder() []int { return append([]int(nil), g.order...) }

// StartNodes returns the startpoint ids (inputs, sequential outputs).
func (g *Graph) StartNodes() []int { return append([]int(nil), g.starts...) }

// OutEdges calls visit for each arc leaving node id.
func (g *Graph) OutEdges(id int, visit func(EdgeInfo)) {
	for _, e := range g.out[id] {
		d := e.rise
		if e.fall > d {
			d = e.fall
		}
		visit(EdgeInfo{From: id, To: e.to, Delay: d, IsNet: e.isNet, Inst: g.keys[id].inst})
	}
}

// NodeCount returns the number of timing nodes.
func (g *Graph) NodeCount() int { return len(g.keys) }
