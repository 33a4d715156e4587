package mga

import (
	"fmt"
	"math"
	"sort"

	"desync/internal/ctrlnet"
	"desync/internal/equiv"
	"desync/internal/lint"
	"desync/internal/netlist"
)

// TransKind classifies a marked-graph transition.
type TransKind uint8

// Transition kinds.
const (
	TransMaster  TransKind = iota // master capture of one region
	TransSlave                    // slave capture of one region
	TransEnvSrc                   // environment request production
	TransEnvSink                  // environment acknowledge consumption
)

// Transition is one event class of the marked graph: a region's master or
// slave capture, or one environment channel's production/consumption.
type Transition struct {
	ID     int
	Name   string // "M3", "S3", "E:G5_env_ri"
	Kind   TransKind
	Region int // owning region; -1 for free-standing environment channels
}

// Place is one marked-graph place: a producer→consumer dependency with an
// initial token count and a worst-case event-chain latency in ns.
type Place struct {
	ID      int
	Src     int // producing transition
	Dst     int // consuming transition
	Tokens  int
	Delay   float64
	Name    string // "req G1>G3", "ack G3>G1", "ms G3", "cycle G3"
	Channel string // bottleneck label: "G1>G3" for channel places, "" otherwise
}

// Graph is the delay-annotated marked graph of one controller network.
type Graph struct {
	Design string
	Trans  []Transition
	Places []Place

	// out/in index places by their source/destination transition.
	out, in [][]int

	// masterOf/slaveOf map a region id to its transition id (-1: missing).
	masterOf, slaveOf map[int]int

	// wiringPreds records, per region, the pred regions its request wiring
	// actually synchronizes against (for the DDG cross-check).
	wiringPreds map[int]map[int]bool

	// ddgPreds is the data-dependency pred set from the ctrlnet IR.
	ddgPreds map[int][]int

	// resetFaults lists reset-phase findings discovered during the build.
	findings []lint.Finding

	// sigs is the model-signal export captured at build time so CheckModel
	// does not re-export it (the export allocates per signal).
	sigs []equiv.StaticSignal
}

// AddTransition appends a transition and returns its id. Hand-built
// graphs (tests, fixtures) use this; Analyze only needs Trans/Places.
func (g *Graph) AddTransition(name string, kind TransKind, region int) int {
	id := len(g.Trans)
	g.Trans = append(g.Trans, Transition{ID: id, Name: name, Kind: kind, Region: region})
	return id
}

// AddPlace appends a place (its ID field is assigned) and returns the id.
func (g *Graph) AddPlace(p Place) int {
	p.ID = len(g.Places)
	g.Places = append(g.Places, p)
	return p.ID
}

// index (re)builds the adjacency lists; Analyze calls it, so hand-built
// graphs never have to.
func (g *Graph) index() {
	g.out = make([][]int, len(g.Trans))
	g.in = make([][]int, len(g.Trans))
	for _, p := range g.Places {
		g.out[p.Src] = append(g.out[p.Src], p.ID)
		g.in[p.Dst] = append(g.in[p.Dst], p.ID)
	}
}

// builder carries the state of BuildGraph.
type builder struct {
	g      *Graph
	cn     *ctrlnet.Network
	sigs   []equiv.StaticSignal
	corner netlist.Corner

	// Path walk state lives in tables indexed by net slot: a net's NetID,
	// or, for a net the module does not own (a connection set past the
	// netlist's bookkeeping can reach one), a slot past the module's own
	// handed out by the small foreign map.
	mod     *netlist.Module
	nets    int // slots of the module's own nets
	foreign map[*netlist.Net]int

	// stop marks the nets whose drivers are controller gates: path walks
	// terminate there (the place starting at that gate prices the gate's
	// own arc separately).
	stop []bool

	// memo caches path delays at 2*slot (rising) and 2*slot+1 (falling).
	// An entry is unset until its walk starts; NaN marks a net currently
	// on the walk stack (combinational-cycle guard).
	memo []float64

	// pins caches each cell's input/output pin names: path visits the
	// same few cell types hundreds of times across the delay chains, and
	// CellDef.Inputs allocates on every call.
	pins map[*netlist.CellDef]*pinSets
}

type pinSets struct {
	ins, outs []string
}

func (b *builder) pinsOf(c *netlist.CellDef) *pinSets {
	if ps, ok := b.pins[c]; ok {
		return ps
	}
	ps := &pinSets{ins: c.Inputs(), outs: c.Outputs()}
	b.pins[c] = ps
	return ps
}

// unset marks a memo entry whose walk has not started: no path delay is
// -Inf.
var unset = math.Inf(-1)

// slot returns the net's table slot, giving a net the module does not own
// the next slot past the module's own.
func (b *builder) slot(n *netlist.Net) int {
	if id := n.ID(); int(id) < b.nets && b.mod.NetByID(id) == n {
		return int(id)
	}
	s, ok := b.foreign[n]
	if !ok {
		s = len(b.stop)
		b.foreign[n] = s
		b.stop = append(b.stop, false)
		b.memo = append(b.memo, unset, unset)
	}
	return s
}

// BuildGraph constructs the delay-annotated marked graph of a
// desynchronized module from the shared control-network IR and the equiv
// token-marking model.
//
// Topology comes from the model's resolved wiring (so rewired fixtures
// are modelled as built); token counts come from the latch reset phases
// (a master resets transparent and ready to capture, so the place feeding
// it holds the schedule's initial token — a swapped reset phase drains
// the tokens off its channel cycles, which liveness then rejects); delays
// come from walking the actual request trees, acknowledge trees and
// matched delay chains in the netlist and pricing every traversed arc the
// way the simulator does.
func BuildGraph(mod *netlist.Module, cn *ctrlnet.Network, m *equiv.Model, opts Options) *Graph {
	b := &builder{
		g: &Graph{
			Design:      mod.Name,
			masterOf:    map[int]int{},
			slaveOf:     map[int]int{},
			wiringPreds: map[int]map[int]bool{},
			ddgPreds:    map[int][]int{},
		},
		cn:   cn,
		sigs: m.StaticSignals(),

		corner:  opts.corner(),
		mod:     mod,
		foreign: map[*netlist.Net]int{},
		pins:    map[*netlist.CellDef]*pinSets{},
	}
	for _, n := range mod.Nets {
		b.nets = max(b.nets, int(n.ID())+1)
	}
	b.stop = make([]bool, b.nets)
	b.memo = make([]float64, 2*b.nets)
	for i := range b.memo {
		b.memo[i] = unset
	}
	g := b.g
	g.sigs = b.sigs

	// Transitions: master and slave per region, then environment channels
	// in model signal order (deterministic: extraction order is fixed).
	for _, r := range cn.Regions {
		g.masterOf[r] = g.AddTransition(fmt.Sprintf("M%d", r), TransMaster, r)
		g.slaveOf[r] = g.AddTransition(fmt.Sprintf("S%d", r), TransSlave, r)
		g.wiringPreds[r] = map[int]bool{}
		g.ddgPreds[r] = append([]int(nil), cn.Preds[r]...)
	}
	envOf := map[int]int{} // model signal index -> transition id
	for i, s := range b.sigs {
		switch s.Kind {
		case equiv.SigEnvSrc:
			envOf[i] = g.AddTransition("E:"+s.Name, TransEnvSrc, -1)
		case equiv.SigEnvSink:
			envOf[i] = g.AddTransition("E:"+s.Name, TransEnvSink, -1)
		}
	}

	// Path walks stop at controller gate outputs and environment ports.
	for _, r := range cn.Regions {
		c := cn.Controllers[r]
		for _, gs := range []ctrlnet.Gates{c.Master, c.Slave} {
			for _, in := range []*netlist.Inst{gs.G, gs.RO, gs.B, gs.AI} {
				if n := gateOut(in); n != nil {
					b.stop[b.slot(n)] = true
				}
			}
		}
	}

	for _, v := range cn.Regions {
		b.buildRegion(v, m, envOf)
	}
	return g
}

// gateOut returns a controller gate's output net (Q for the gC gates, Z
// for the acknowledge AND).
func gateOut(in *netlist.Inst) *netlist.Net {
	if in == nil {
		return nil
	}
	if n := in.Conn("Q"); n != nil {
		return n
	}
	return in.Conn("Z")
}

// dedupLinks drops duplicate generation links while preserving order.
func dedupLinks(links []equiv.GenLink) []equiv.GenLink {
	seen := map[equiv.GenLink]bool{}
	out := links[:0:0]
	for _, l := range links {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// buildRegion adds region v's places: its request channels (from the
// resolved wiring), its acknowledge channels (from its slave's consumer
// wiring), its internal master→slave and slave→master places, and the
// environment cycles it borders.
func (b *builder) buildRegion(v int, m *equiv.Model, envOf map[int]int) {
	g, cn := b.g, b.cn
	c := cn.Controllers[v]
	ch := cn.Channels[v]
	if c == nil {
		c = &ctrlnet.Controller{Region: v}
	}
	if ch == nil {
		ch = &ctrlnet.Channel{}
	}
	gates := m.StaticGates(v)
	mInit := gates.MG >= 0 && b.sigs[gates.MG].Init
	sInit := gates.SG >= 0 && b.sigs[gates.SG].Init
	tokIf := func(init bool) int {
		if init {
			return 1
		}
		return 0
	}

	// Reset-phase audit: the flow resets masters transparent and slaves
	// opaque; an inversion leaves a latch pair holding the wrong phase at
	// reset, which also drains its channel cycles of tokens below.
	if gates.MG >= 0 && !mInit {
		b.addFinding(lint.Error, b.sigs[gates.MG].Name,
			fmt.Sprintf("region %d master latch-enable resets opaque (want transparent): reset phase inverted", v))
	}
	if gates.SG >= 0 && sInit {
		b.addFinding(lint.Error, b.sigs[gates.SG].Name,
			fmt.Sprintf("region %d slave latch-enable resets transparent (want opaque): reset phase inverted", v))
	}

	// Request places into the master: one per generation source.
	capture := b.arc(c.Master.G, "B", false) // ri-triggered capture
	reqRise := b.path(ch.MRI, true)
	reqFall := b.path(ch.MRI, false)
	for _, l := range dedupLinks(m.StaticPreds(v)) {
		switch l.Kind {
		case equiv.LinkSlave, equiv.LinkMaster:
			u := l.Region
			if _, ok := g.slaveOf[u]; !ok { // region not in the IR
				continue
			}
			g.wiringPreds[v][u] = true
			src, ro := g.slaveOf[u], cn.Controllers[u].Slave.RO
			name := fmt.Sprintf("req G%d>G%d", u, v)
			if l.Kind == equiv.LinkMaster {
				src, ro = g.masterOf[u], cn.Controllers[u].Master.RO
				name = fmt.Sprintf("req G%d.m>G%d", u, v)
			}
			d := b.arc(ro, "A", true) + reqRise + capture
			g.AddPlace(Place{Src: src, Dst: g.masterOf[v], Tokens: tokIf(mInit), Delay: d, Name: name, Channel: fmt.Sprintf("G%d>G%d", u, v)})
		case equiv.LinkEnv:
			e, ok := envOf[l.Sig]
			if !ok {
				continue
			}
			// E→M: the request edge through the boundary delay chain.
			g.AddPlace(Place{Src: e, Dst: g.masterOf[v], Tokens: 0, Delay: reqRise + capture, Name: fmt.Sprintf("env-req>G%d", v), Channel: fmt.Sprintf("env>G%d", v)})
			// M→E: acknowledge out plus the channel's return-to-zero (an
			// eager environment answers instantly; the chain's fast fall
			// and the acknowledge gate dominate).
			d := b.arc(c.Master.AI, "B", true) + reqFall + b.arc(c.Master.AI, "A", false)
			g.AddPlace(Place{Src: g.masterOf[v], Dst: e, Tokens: 1, Delay: d, Name: fmt.Sprintf("G%d>env-req", v)})
		}
	}

	// Acknowledge places out of the slave: one per consumer. The place
	// covers the acknowledge rise (reopen) and the return-to-zero the
	// slave's next capture must wait out.
	aoNet := (*netlist.Net)(nil)
	if c.Slave.G != nil {
		aoNet = c.Slave.G.Conn("A")
	}
	cons := dedupLinks(m.StaticConsumers(v))
	rtz := b.slaveRTZ(v, cons, aoNet)
	for _, l := range cons {
		switch l.Kind {
		case equiv.LinkCons:
			w := l.Region
			cw := cn.Controllers[w]
			if cw == nil {
				continue
			}
			d := b.arc(cw.Master.AI, "B", true) + b.path(aoNet, true) +
				b.arc(c.Slave.G, "A", true) + rtz
			g.AddPlace(Place{Src: g.masterOf[w], Dst: g.slaveOf[v], Tokens: tokIf(sInit), Delay: d, Name: fmt.Sprintf("ack G%d>G%d", w, v)})
		case equiv.LinkEnvSink:
			e, ok := envOf[l.Sig]
			if !ok {
				continue
			}
			// S→E: request out to the environment consumer.
			g.AddPlace(Place{Src: g.slaveOf[v], Dst: e, Tokens: 1, Delay: b.arc(c.Slave.RO, "A", true) + b.path0(ch.SRO, true), Name: fmt.Sprintf("G%d>env-ack", v)})
			// E→S: the (eager) environment acknowledge reopens the slave.
			g.AddPlace(Place{Src: e, Dst: g.slaveOf[v], Tokens: 0, Delay: b.arc(c.Slave.G, "A", true) + rtz, Name: fmt.Sprintf("env-ack>G%d", v), Channel: fmt.Sprintf("G%d>env", v)})
		}
	}

	// Internal places: master→slave data hand-off through the matched
	// master→slave delay, and slave→master reopen plus the master-side
	// return-to-zero.
	msd := b.arc(c.Master.RO, "A", true) + b.path(ch.SRI, true) + b.arc(c.Slave.G, "B", false)
	g.AddPlace(Place{Src: g.masterOf[v], Dst: g.slaveOf[v], Tokens: tokIf(sInit), Delay: msd, Name: fmt.Sprintf("ms G%d", v)})
	mrtz := b.arc(c.Master.RO, "A", false) + b.path(ch.SRI, false) + b.arc(c.Slave.AI, "A", false)
	aoM := (*netlist.Net)(nil)
	if c.Master.G != nil {
		aoM = c.Master.G.Conn("A")
	}
	reopen := b.arc(c.Slave.AI, "B", true) + b.path(aoM, true) + b.arc(c.Master.G, "A", true)
	g.AddPlace(Place{Src: g.slaveOf[v], Dst: g.masterOf[v], Tokens: tokIf(mInit), Delay: reopen + mrtz, Name: fmt.Sprintf("cycle G%d", v)})
}

// slaveRTZ prices the return-to-zero phase region v's slave must wait out
// between reopening and its next capture: its request-out falls, ripples
// through every successor channel's tree and chain, the successors'
// acknowledges fall, and the acknowledge rendezvous clears.
func (b *builder) slaveRTZ(v int, cons []equiv.GenLink, aoNet *netlist.Net) float64 {
	c := b.cn.Controllers[v]
	worst := 0.0
	for _, l := range cons {
		if l.Kind != equiv.LinkCons {
			continue
		}
		cw := b.cn.Controllers[l.Region]
		chw := b.cn.Channels[l.Region]
		if cw == nil || chw == nil {
			continue
		}
		if d := b.path(chw.MRI, false) + b.arc(cw.Master.AI, "A", false); d > worst {
			worst = d
		}
	}
	return b.arc(c.Slave.RO, "A", false) + worst + b.path(aoNet, false) + b.arc(c.Slave.G, "A", false)
}

func (b *builder) addFinding(sev lint.Severity, net, msg string) {
	b.g.findings = append(b.g.findings, lint.Finding{
		Rule: RuleSafe, Severity: sev, Module: b.g.Design, Net: net, Msg: msg,
	})
}

// arc prices one controller gate's triggering arc at the analysis corner,
// scaled by the instance's delay factor the way the simulator does. A
// missing gate or arc contributes the worst arc into the output, or zero
// when there is nothing to price (the gate's absence is reported by the
// model extraction).
func (b *builder) arc(in *netlist.Inst, from string, rise bool) float64 {
	if in == nil || in.Cell == nil {
		return 0
	}
	out := "Q"
	if in.Conn("Q") == nil {
		out = "Z"
	}
	var d float64
	if a := in.Cell.Arc(from, out); a != nil {
		if rise {
			d = a.Rise.At(b.corner)
		} else {
			d = a.Fall.At(b.corner)
		}
	} else {
		for _, a := range in.Cell.Arcs {
			if a.To != out {
				continue
			}
			dd := a.Rise.At(b.corner)
			if !rise {
				dd = a.Fall.At(b.corner)
			}
			if dd > d {
				d = dd
			}
		}
	}
	return d * effFactor(in)
}

// effFactor mirrors sta.EffectiveFactor without importing the package: a
// zero delay factor means unset.
func effFactor(in *netlist.Inst) float64 {
	if in.DelayFactor == 0 {
		return 1
	}
	return in.DelayFactor
}

// path returns the worst-case propagation delay to net n from any
// controller gate output or environment port feeding it, walking drivers
// backwards through delay chains, rendezvous trees and buffers and
// pricing every traversed arc at the analysis corner.
//
// The leg-join rule follows the gates' monotone semantics. A rendezvous
// (C-element) output moves only when its last input has moved — maximum
// over legs, on both edges. An AND-family gate rises on its last rising
// input (maximum) but falls on its FIRST falling input (minimum): matched
// delay chains exploit exactly this, tying every stage's second input to
// the chain's source so a withdrawn request broadcasts through the chain
// in one gate delay instead of rippling down it. Pricing chain falls with
// a maximum would overstate every return-to-zero phase by the full chain
// latency and push the period bound far past what the circuit does.
func (b *builder) path(n *netlist.Net, rise bool) float64 {
	if n == nil {
		return 0
	}
	s := b.slot(n)
	k := 2 * s
	if !rise {
		k++
	}
	if d := b.memo[k]; d != unset {
		if math.IsNaN(d) {
			// A combinational cycle outside the controller gates; lint's
			// NL-LOOP owns reporting it. Cut the walk.
			return 0
		}
		return d
	}
	if b.stop[s] {
		return 0
	}
	in := n.Driver.Inst
	if in == nil || in.Cell == nil {
		return 0 // environment port or unmodelled boundary
	}
	b.memo[k] = math.NaN()
	ps := b.pinsOf(in.Cell)
	outPin := ""
	for _, pin := range ps.outs {
		if in.Conn(pin) == n {
			outPin = pin
			break
		}
	}
	rendezvous := in.Cell.Kind == netlist.KindCElem || in.Cell.Kind == netlist.KindGC
	first := true
	d := 0.0
	for _, pin := range ps.ins {
		src := in.Conn(pin)
		if src == nil {
			continue
		}
		leg := b.path(src, rise) + b.arcFromPin(in, pin, outPin, rise)
		if first {
			d, first = leg, false
		} else if rise || rendezvous {
			d = max(d, leg)
		} else {
			d = min(d, leg)
		}
	}
	b.memo[k] = d
	return d
}

// path0 is path for nets that may be ports themselves (no driver walk).
func (b *builder) path0(n *netlist.Net, rise bool) float64 { return b.path(n, rise) }

// arcFromPin prices inst's from→out arc (falling back like the
// simulator's delayOf to the worst arc into the output).
func (b *builder) arcFromPin(in *netlist.Inst, from, out string, rise bool) float64 {
	if out == "" {
		return b.arc(in, from, rise)
	}
	if a := in.Cell.Arc(from, out); a != nil {
		d := a.Fall.At(b.corner)
		if rise {
			d = a.Rise.At(b.corner)
		}
		return d * effFactor(in)
	}
	var d float64
	for _, a := range in.Cell.Arcs {
		if a.To != out {
			continue
		}
		dd := a.Rise.At(b.corner)
		if !rise {
			dd = a.Fall.At(b.corner)
		}
		if dd > d {
			d = dd
		}
	}
	return d * effFactor(in)
}

// SortedRegions returns the region ids present in the graph, sorted.
func (g *Graph) SortedRegions() []int {
	out := make([]int, 0, len(g.masterOf))
	for r := range g.masterOf {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
