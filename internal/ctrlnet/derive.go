package ctrlnet

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"desync/internal/handshake"
	"desync/internal/netlist"
	"desync/internal/sta"
)

// Derive returns the control-network IR of a module, rebuilding it from
// netlist structure alone. Results are memoized against the module's
// mutation counter: repeated calls between structural changes (the common
// CLI pattern — flow, then lint, then equiv, then faults on one module)
// share a single derivation.
//
// Derivation has one documented side effect, inherited from the lint engine
// it replaces: on designs re-read from Verilog (where in-memory Group tags
// are gone) each cleanly colored latch gets its recovered region stored
// back into Inst.Group, so region-aware timing analyses keep working.
func Derive(m *netlist.Module) *Network {
	mu.Lock()
	defer mu.Unlock()
	for _, e := range cache {
		if e != nil && e.Module == m && e.seq == m.ModSeq() {
			return e
		}
	}
	n := derive(m)
	cache[cacheNext] = n
	cacheNext = (cacheNext + 1) % len(cache)
	return n
}

// DeriveFresh derives the IR bypassing the memo — for benchmarks and tests
// that measure or exercise the derivation itself.
func DeriveFresh(m *netlist.Module) *Network {
	mu.Lock()
	defer mu.Unlock()
	return derive(m)
}

// The memo is a small ring: flows touch one module at a time, tests a
// handful, and a bounded ring cannot pin arbitrarily many dead modules the
// way a grow-only map would. The mutex also serializes the derivation
// itself (it writes the recovered Group tags).
var (
	mu        sync.Mutex
	cache     [4]*Network
	cacheNext int
)

// deriver carries one derivation. Its backward walks keep their state in
// tables indexed by net slot: a net's NetID, or, for a net the module does
// not own (a connection set with SetConnUnchecked can reach one), a slot
// past the module's own handed out by a small fallback map. Instances are
// slotted the same way. Walk results are windows of shared arenas, so a
// derivation allocates a fixed set of tables, not a map or a slice per net.
type deriver struct {
	m *netlist.Module
	n *Network

	nets, insts  int // slots of the module's own nets and instances
	foreignNets  map[*netlist.Net]int32
	foreignInsts map[*netlist.Inst]int32
	foreign      []*netlist.Inst // by instance slot minus insts

	src     []walk   // by net slot: the net's sequential sources, in srcs
	srcs    []int32  // source arena: instance slots
	mark    []uint32 // by instance slot: the last union that took it
	netMark []uint32 // by net slot: the last tree query that took it
	pass    uint32   // current union or tree query

	enable []walk // by net slot: the net's controller roots, in roots
	roots  []Root // root arena

	// pending stacks the input windows of the unions in progress.
	pending []walk

	// byPrefix lists the control instances whose names hold a '/', sorted
	// by the name up to and including the first '/' (creation order within
	// a prefix). Every rendezvous-tree query prefix is slash-free plus a
	// trailing slash, so one pass over Insts answers all of them — scanning
	// the whole module per region made derivation quadratic past a few
	// hundred regions.
	byPrefix []prefixed
}

// walk is one net's state in a memoized backward walk: its result is
// arena[off : off+n] once done.
type walk struct {
	state  uint8
	off, n int32
}

// Walk states.
const (
	unvisited uint8 = iota
	onStack
	done
)

type prefixed struct {
	prefix string
	in     *netlist.Inst
}

func derive(m *netlist.Module) *Network {
	n := &Network{
		Module:      m,
		Controllers: map[int]*Controller{},
		Channels:    map[int]*Channel{},
		Preds:       map[int][]int{}, Succs: map[int][]int{},
		ReqTrees: map[int]*CTree{}, AckTrees: map[int]*CTree{},
		ReqDelays: map[int]*DelayChain{}, MSDelays: map[int]*DelayChain{},
		Completion: map[int]bool{},
		seq:        m.ModSeq(),
	}
	d := &deriver{m: m, n: n}

	// Regions are discovered by their master enable gates; the instance
	// names survive Verilog round trips. Flip-flops are collected for the
	// DS-FF rule; completion networks mark their region.
	for _, in := range m.Insts {
		d.insts = max(d.insts, int(in.ID())+1)
		if in.Cell != nil && in.Cell.Kind == netlist.KindFF {
			n.FFs = append(n.FFs, in)
		}
		g, ok := Region(in.Name)
		if !ok {
			continue
		}
		if in.Name == CtrlGate(g, true, GateG) {
			n.Regions = append(n.Regions, g)
		}
		if strings.HasPrefix(in.Name, CdetPrefix(g)) {
			n.Completion[g] = true
		}
		if cut := strings.IndexByte(in.Name, '/'); cut >= 0 {
			d.byPrefix = append(d.byPrefix, prefixed{in.Name[:cut+1], in})
		}
	}
	slices.Sort(n.Regions)
	if n.Empty() {
		return n
	}
	slices.SortStableFunc(d.byPrefix, func(a, b prefixed) int { return strings.Compare(a.prefix, b.prefix) })
	for _, net := range m.Nets {
		d.nets = max(d.nets, int(net.ID())+1)
	}
	d.src = make([]walk, d.nets)
	d.enable = make([]walk, d.nets)
	d.netMark = make([]uint32, d.nets)
	d.mark = make([]uint32, d.insts)

	for _, g := range n.Regions {
		n.Controllers[g] = &Controller{
			Region: g,
			Master: d.gates(g, true),
			Slave:  d.gates(g, false),
		}
		n.Channels[g] = &Channel{
			MRI: m.Net(Name(g, "mri")), MAI: m.Net(Name(g, "mai")),
			MRO: m.Net(Name(g, "mro")), SRI: m.Net(Name(g, "sri")),
			SAI: m.Net(Name(g, "sai")), SRO: m.Net(Name(g, "sro")),
		}
		if t := d.ctree(CTreePrefix(g, true) + "/"); t != nil {
			n.ReqTrees[g] = t
		}
		if t := d.ctree(CTreePrefix(g, false) + "/"); t != nil {
			n.AckTrees[g] = t
		}
		if c := d.chain(DelayPrefix(g) + "/"); c != nil {
			n.ReqDelays[g] = c
		}
		if c := d.chain(MSDelayPrefix(g) + "/"); c != nil {
			n.MSDelays[g] = c
		}
		if p := m.Port(EnvRequestPort(g)); p != nil && p.Dir == netlist.In {
			n.EnvRequests = append(n.EnvRequests, p.Name)
		}
		if p := m.Port(EnvAckPort(g)); p != nil && p.Dir == netlist.In {
			n.EnvAcks = append(n.EnvAcks, p.Name)
		}
	}

	d.colorLatches()
	d.buildEdges()
	return n
}

func (d *deriver) gates(g int, master bool) Gates {
	return Gates{
		G:  d.m.Inst(CtrlGate(g, master, GateG)),
		RO: d.m.Inst(CtrlGate(g, master, GateRO)),
		B:  d.m.Inst(CtrlGate(g, master, GateB)),
		AI: d.m.Inst(CtrlGate(g, master, GateAI)),
	}
}

// netSlot returns the net's table slot, giving a net the module does not
// own the next slot past the module's own.
func (d *deriver) netSlot(n *netlist.Net) int32 {
	if id := n.ID(); int(id) < d.nets && d.m.NetByID(id) == n {
		return int32(id)
	}
	s, ok := d.foreignNets[n]
	if !ok {
		if d.foreignNets == nil {
			d.foreignNets = map[*netlist.Net]int32{}
		}
		s = int32(len(d.src))
		d.foreignNets[n] = s
		d.src = append(d.src, walk{})
		d.enable = append(d.enable, walk{})
		d.netMark = append(d.netMark, 0)
	}
	return s
}

// instSlot is netSlot for instances.
func (d *deriver) instSlot(in *netlist.Inst) int32 {
	if id := in.ID(); int(id) < d.insts && d.m.InstByID(id) == in {
		return int32(id)
	}
	s, ok := d.foreignInsts[in]
	if !ok {
		if d.foreignInsts == nil {
			d.foreignInsts = map[*netlist.Inst]int32{}
		}
		s = int32(d.insts + len(d.foreign))
		d.foreignInsts[in] = s
		d.foreign = append(d.foreign, in)
		d.mark = append(d.mark, 0)
	}
	return s
}

// instAt returns the instance in a slot.
func (d *deriver) instAt(s int32) *netlist.Inst {
	if int(s) < d.insts {
		return d.m.InstByID(netlist.InstID(s))
	}
	return d.foreign[int(s)-d.insts]
}

// pinIs reports whether the instance's cell declares pin with direction
// dir. Connections carry their pin's direction, but one set with
// SetConnUnchecked may name a pin the cell does not declare, which the
// walks skip.
func pinIs(in *netlist.Inst, pin string, dir netlist.PinDir) bool {
	p := in.Cell.Pin(pin)
	return p != nil && p.Dir == dir
}

// ctrlEnableRoot matches the controller latch-enable gates by name.
func ctrlEnableRoot(name string) (Root, bool) {
	g, ok := Region(name)
	if !ok {
		return Root{}, false
	}
	switch name {
	case CtrlGate(g, true, GateG):
		return Root{Region: g, Phase: Master}, true
	case CtrlGate(g, false, GateG):
		return Root{Region: g, Phase: Slave}, true
	}
	return Root{}, false
}

// enableRoots walks backwards from an enable net through combinational
// gating (clock-gate ANDs, set ORs, inverters of Fig 3.1) and returns the
// distinct controller enable gates that feed it, in first-reached order.
// Walks are memoized on exit; a net already on the walk (a combinational
// cycle) contributes nothing.
func (d *deriver) enableRoots(n *netlist.Net) walk {
	s := d.netSlot(n)
	switch d.enable[s].state {
	case done:
		return d.enable[s]
	case onStack:
		return walk{}
	}
	d.enable[s].state = onStack
	w := walk{state: done, off: int32(len(d.roots))}
	if drv := n.Driver.Inst; drv != nil && drv.Cell != nil {
		if rt, ok := ctrlEnableRoot(drv.Name); ok {
			d.roots = append(d.roots, rt)
			w.n = 1
		} else if drv.Cell.Kind == netlist.KindComb {
			w = d.joinRoots(d.inputWalks(drv, d.enableRoots))
		}
	}
	d.enable[s] = w
	return w
}

// joinRoots appends the distinct roots of the input windows, in order.
func (d *deriver) joinRoots(base int) walk {
	ins := d.pending[base:]
	d.pending = d.pending[:base]
	w := walk{state: done, off: int32(len(d.roots))}
	for _, in := range ins {
		for _, rt := range d.roots[in.off : in.off+in.n] {
			if !slices.Contains(d.roots[w.off:], rt) {
				d.roots = append(d.roots, rt)
			}
		}
	}
	w.n = int32(len(d.roots)) - w.off
	return w
}

// inputWalks walks every input of the instance, in connection order, and
// pushes the non-empty results onto pending, above the returned base.
func (d *deriver) inputWalks(in *netlist.Inst, walkNet func(*netlist.Net) walk) int {
	base := len(d.pending)
	for _, pc := range in.Conns() {
		if pc.Net != nil && pinIs(in, pc.Pin, netlist.In) {
			if w := walkNet(pc.Net); w.n > 0 {
				d.pending = append(d.pending, w)
			}
		}
	}
	return base
}

// colorLatches records every latch with its enable net and distinct
// controller roots, and recovers Group tags for cleanly colored latches.
func (d *deriver) colorLatches() {
	count := 0
	for _, in := range d.m.Insts {
		if in.Cell != nil && in.Cell.Kind == netlist.KindLatch {
			count++
		}
	}
	latches := make([]Latch, count)
	d.n.Latches = make([]*Latch, 0, count)
	d.n.latchOf = make([]*Latch, d.insts)
	for _, in := range d.m.Insts {
		if in.Cell == nil || in.Cell.Kind != netlist.KindLatch {
			continue
		}
		l := &latches[len(d.n.Latches)]
		l.Inst, l.Enable = in, in.Conn(in.Cell.Seq.ClockPin)
		if l.Enable != nil {
			if w := d.enableRoots(l.Enable); w.n > 0 {
				l.Roots = d.roots[w.off : w.off+w.n : w.off+w.n]
			}
		}
		if l.Colored() && in.Group < 0 {
			in.Group = l.Roots[0].Region
		}
		d.n.Latches = append(d.n.Latches, l)
		d.n.latchOf[in.ID()] = l
	}
}

// isControl reports whether an instance belongs to the control network —
// by Origin tag for in-memory designs, by name for re-read ones.
func isControl(in *netlist.Inst) bool {
	if handshake.IsControlOrigin(in.Origin) {
		return true
	}
	_, ok := Region(in.Name)
	return ok
}

// netSources returns the sequential instances whose outputs reach net n
// backwards through combinational datapath logic, as a window of the
// source arena with no instance twice. Walks are memoized on exit; a net
// already on the walk (a combinational cycle) contributes nothing, so a
// net inside a cycle keeps what it had reached when its walk ended.
func (d *deriver) netSources(n *netlist.Net) walk {
	s := d.netSlot(n)
	switch d.src[s].state {
	case done:
		return d.src[s]
	case onStack:
		return walk{}
	}
	d.src[s].state = onStack
	w := walk{state: done}
	if drv := n.Driver.Inst; drv != nil && drv.Cell != nil {
		switch {
		case drv.Cell.Seq != nil:
			w.off, w.n = int32(len(d.srcs)), 1
			d.srcs = append(d.srcs, d.instSlot(drv))
		case drv.Cell.Kind == netlist.KindComb && !isControl(drv):
			w = d.joinSources(d.inputWalks(drv, d.netSources))
		}
	}
	d.src[s] = w
	return w
}

// joinSources unions the input windows. A gate whose inputs all reach the
// same window (a buffer, or a gate fed by one cone) shares it instead of
// copying.
func (d *deriver) joinSources(base int) walk {
	ins := d.pending[base:]
	d.pending = d.pending[:base]
	switch {
	case len(ins) == 0:
		return walk{state: done}
	case !slices.ContainsFunc(ins[1:], func(w walk) bool { return w != ins[0] }):
		return ins[0]
	}
	d.pass++
	w := walk{state: done, off: int32(len(d.srcs))}
	for _, in := range ins {
		for _, s := range d.srcs[in.off : in.off+in.n] {
			if d.mark[s] != d.pass {
				d.mark[s] = d.pass
				d.srcs = append(d.srcs, s)
			}
		}
	}
	w.n = int32(len(d.srcs)) - w.off
	return w
}

// dataPins calls f with every connected data-input net of a sequential
// instance, one call per pin (shared nets repeat).
func dataPins(in *netlist.Inst, f func(*netlist.Net)) {
	for _, p := range in.Cell.Pins {
		if p.Dir == netlist.In && p.Class == netlist.ClassData {
			if n := in.Conn(p.Name); n != nil {
				f(n)
			}
		}
	}
}

// buildEdges enumerates the latch-to-latch data reaches of the colored
// latches and derives the region dependency graph from them. Direct
// same-region hops (the internal master→slave connection and signal-history
// chains) are not dependencies, matching core.BuildDDG;
// combinationally-mediated self edges stay.
func (d *deriver) buildEdges() {
	n := d.n
	// Walk every data net first, in the order the edges list them, so the
	// edge list can be sized once.
	total := 0
	for _, l := range n.Latches {
		if l.Colored() {
			dataPins(l.Inst, func(net *netlist.Net) { total += int(d.netSources(net).n) })
		}
	}
	n.Edges = make([]DataEdge, 0, total)
	var srcs []*netlist.Inst
	var graph [][2]int
	for _, l := range n.Latches {
		if !l.Colored() {
			continue
		}
		v := l.Region()
		dataPins(l.Inst, func(net *netlist.Net) {
			w := d.netSources(net)
			srcs = srcs[:0]
			for _, s := range d.srcs[w.off : w.off+w.n] {
				srcs = append(srcs, d.instAt(s))
			}
			slices.SortFunc(srcs, func(a, b *netlist.Inst) int { return strings.Compare(a.Name, b.Name) })
			for _, src := range srcs {
				e := DataEdge{Sink: l.Inst, Net: net, Src: src, Direct: net.Driver.Inst == src}
				n.Edges = append(n.Edges, e)
				if sl := n.Latch(src); sl != nil && sl.Colored() {
					u := sl.Region()
					if u == v && e.Direct {
						continue // direct intra-region register hop
					}
					if k := len(graph); k == 0 || graph[k-1] != [2]int{u, v} {
						graph = append(graph, [2]int{u, v})
					}
				}
			}
		})
	}
	slices.SortFunc(graph, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	for _, e := range slices.Compact(graph) {
		n.Succs[e[0]] = append(n.Succs[e[0]], e[1])
		n.Preds[e[1]] = append(n.Preds[e[1]], e[0])
	}
}

// ctree collects the C-element tree carrying the given instance prefix,
// with its external input nets as sorted leaves; nil when no member exists.
func (d *deriver) ctree(prefix string) *CTree {
	lo, _ := slices.BinarySearchFunc(d.byPrefix, prefix, func(p prefixed, s string) int { return strings.Compare(p.prefix, s) })
	var members []*netlist.Inst
	for _, p := range d.byPrefix[lo:] {
		if p.prefix != prefix {
			break
		}
		if p.in.Cell != nil {
			members = append(members, p.in)
		}
	}
	if len(members) == 0 {
		return nil
	}
	// The members' output nets are internal to the tree: mark them with
	// this query's pass.
	d.pass++
	for _, in := range members {
		for _, pc := range in.Conns() {
			if pc.Net != nil && pinIs(in, pc.Pin, netlist.Out) {
				d.netMark[d.netSlot(pc.Net)] = d.pass
			}
		}
	}
	t := &CTree{Prefix: prefix, Members: members}
	for _, in := range members {
		for _, pc := range in.Conns() {
			if pc.Net != nil && pinIs(in, pc.Pin, netlist.In) && d.netMark[d.netSlot(pc.Net)] != d.pass {
				t.Leaves = append(t.Leaves, pc.Net.Name)
			}
		}
	}
	slices.Sort(t.Leaves)
	t.Leaves = slices.Compact(t.Leaves)
	return t
}

// chain walks a delay-element AND chain (prefix + "a1", "a2", ...) summing
// the worst-corner rise delay with each gate's variability factor — the
// same pricing sta.Build uses. For muxed elements this is the longest tap.
// Returns nil when no stage exists.
func (d *deriver) chain(prefix string) *DelayChain {
	c := &DelayChain{Prefix: prefix}
	for {
		in := d.m.Inst(ChainStage(strings.TrimSuffix(prefix, "/"), c.Levels+1))
		if in == nil || in.Cell == nil {
			break
		}
		arc := in.Cell.Arc("A", "Z")
		if arc == nil {
			break
		}
		if c.First == nil {
			c.First = in
		}
		c.Delay += arc.Rise.At(netlist.Worst) * sta.EffectiveFactor(in)
		c.Levels++
	}
	if c.Levels == 0 {
		return nil
	}
	return c
}
