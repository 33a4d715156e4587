package ctrlnet

import (
	"sort"
	"strings"

	"desync/internal/netlist"
)

// refDerive is the map-keyed derivation the dense one replaced, kept as
// the reference the differential tests hold Derive to field by field. It
// returns the network and its latch index, and recovers Group tags the
// same way.
func refDerive(m *netlist.Module) (*Network, map[*netlist.Inst]*Latch) {
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
	d := &refDeriver{
		m: m, n: n,
		latchOf:    map[*netlist.Inst]*Latch{},
		enableMemo: map[*netlist.Net][]Root{},
		srcMemo:    map[*netlist.Net]map[*netlist.Inst]bool{},
	}
	regionSet := map[int]bool{}
	for _, in := range m.Insts {
		if in.Cell != nil && in.Cell.Kind == netlist.KindFF {
			n.FFs = append(n.FFs, in)
		}
		g, ok := Region(in.Name)
		if !ok {
			continue
		}
		if in.Name == CtrlGate(g, true, GateG) && !regionSet[g] {
			regionSet[g] = true
			n.Regions = append(n.Regions, g)
		}
		if strings.HasPrefix(in.Name, CdetPrefix(g)) {
			n.Completion[g] = true
		}
	}
	sort.Ints(n.Regions)
	if n.Empty() {
		return n, d.latchOf
	}
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
	return n, d.latchOf
}

type refDeriver struct {
	m         *netlist.Module
	n         *Network
	latchOf   map[*netlist.Inst]*Latch
	prefixIdx map[string][]*netlist.Inst

	enableMemo map[*netlist.Net][]Root
	srcMemo    map[*netlist.Net]map[*netlist.Inst]bool
}

func (d *refDeriver) gates(g int, master bool) Gates {
	return Gates{
		G:  d.m.Inst(CtrlGate(g, master, GateG)),
		RO: d.m.Inst(CtrlGate(g, master, GateRO)),
		B:  d.m.Inst(CtrlGate(g, master, GateB)),
		AI: d.m.Inst(CtrlGate(g, master, GateAI)),
	}
}

func (d *refDeriver) enableRoots(n *netlist.Net, visiting map[*netlist.Net]bool) []Root {
	if rs, ok := d.enableMemo[n]; ok {
		return rs
	}
	if visiting[n] {
		return nil
	}
	visiting[n] = true
	defer delete(visiting, n)
	var out []Root
	drv := n.Driver.Inst
	switch {
	case drv == nil || drv.Cell == nil:
	default:
		if rt, ok := ctrlEnableRoot(drv.Name); ok {
			out = append(out, rt)
			break
		}
		if drv.Cell.Kind != netlist.KindComb {
			break
		}
		for _, pc := range drv.Conns() {
			pin, in := pc.Pin, pc.Net
			if dir, ok := refPinDirOf(drv, pin); ok && dir == netlist.In && in != nil {
				out = append(out, d.enableRoots(in, visiting)...)
			}
		}
	}
	d.enableMemo[n] = out
	return out
}

func (d *refDeriver) colorLatches() {
	for _, in := range d.m.Insts {
		if in.Cell == nil || in.Cell.Kind != netlist.KindLatch {
			continue
		}
		l := &Latch{Inst: in, Enable: in.Conn(in.Cell.Seq.ClockPin)}
		if l.Enable != nil {
			seen := map[Root]bool{}
			for _, rt := range d.enableRoots(l.Enable, map[*netlist.Net]bool{}) {
				if !seen[rt] {
					seen[rt] = true
					l.Roots = append(l.Roots, rt)
				}
			}
		}
		if l.Colored() && in.Group < 0 {
			in.Group = l.Roots[0].Region
		}
		d.n.Latches = append(d.n.Latches, l)
		d.latchOf[in] = l
	}
}

func (d *refDeriver) netSources(n *netlist.Net, visiting map[*netlist.Net]bool) map[*netlist.Inst]bool {
	if s, ok := d.srcMemo[n]; ok {
		return s
	}
	if visiting[n] {
		return nil
	}
	visiting[n] = true
	defer delete(visiting, n)
	out := map[*netlist.Inst]bool{}
	drv := n.Driver.Inst
	if drv != nil && drv.Cell != nil {
		switch {
		case drv.Cell.Seq != nil:
			out[drv] = true
		case drv.Cell.Kind == netlist.KindComb && !isControl(drv):
			for _, pc := range drv.Conns() {
				pin, in := pc.Pin, pc.Net
				if dir, ok := refPinDirOf(drv, pin); ok && dir == netlist.In && in != nil {
					for s := range d.netSources(in, visiting) {
						out[s] = true
					}
				}
			}
		}
	}
	d.srcMemo[n] = out
	return out
}

func refLatchDataNets(in *netlist.Inst) []*netlist.Net {
	var out []*netlist.Net
	for _, p := range in.Cell.Pins {
		if p.Dir == netlist.In && p.Class == netlist.ClassData {
			if n := in.Conn(p.Name); n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

func (d *refDeriver) buildEdges() {
	n := d.n
	graph := map[[2]int]bool{}
	for _, l := range n.Latches {
		if !l.Colored() {
			continue
		}
		v := l.Region()
		for _, net := range refLatchDataNets(l.Inst) {
			srcSet := d.netSources(net, map[*netlist.Net]bool{})
			srcs := make([]*netlist.Inst, 0, len(srcSet))
			for s := range srcSet {
				srcs = append(srcs, s)
			}
			sort.Slice(srcs, func(i, j int) bool { return srcs[i].Name < srcs[j].Name })
			for _, src := range srcs {
				e := DataEdge{Sink: l.Inst, Net: net, Src: src, Direct: net.Driver.Inst == src}
				n.Edges = append(n.Edges, e)
				if sl := d.latchOf[src]; sl != nil && sl.Colored() {
					u := sl.Region()
					if u == v && e.Direct {
						continue
					}
					graph[[2]int{u, v}] = true
				}
			}
		}
	}
	for e := range graph {
		n.Succs[e[0]] = append(n.Succs[e[0]], e[1])
		n.Preds[e[1]] = append(n.Preds[e[1]], e[0])
	}
	for _, l := range n.Succs {
		sort.Ints(l)
	}
	for _, l := range n.Preds {
		sort.Ints(l)
	}
}

func (d *refDeriver) ctree(prefix string) *CTree {
	if d.prefixIdx == nil {
		d.prefixIdx = map[string][]*netlist.Inst{}
		for _, in := range d.m.Insts {
			if cut := strings.IndexByte(in.Name, '/'); cut >= 0 {
				key := in.Name[:cut+1]
				d.prefixIdx[key] = append(d.prefixIdx[key], in)
			}
		}
	}
	internal := map[*netlist.Net]bool{}
	var members []*netlist.Inst
	for _, in := range d.prefixIdx[prefix] {
		if in.Cell == nil {
			continue
		}
		members = append(members, in)
		for _, pc := range in.Conns() {
			pin, n := pc.Pin, pc.Net
			if dir, ok := refPinDirOf(in, pin); ok && dir == netlist.Out && n != nil {
				internal[n] = true
			}
		}
	}
	if len(members) == 0 {
		return nil
	}
	leafSet := map[string]bool{}
	for _, in := range members {
		for _, pc := range in.Conns() {
			pin, n := pc.Pin, pc.Net
			if dir, ok := refPinDirOf(in, pin); ok && dir == netlist.In && n != nil && !internal[n] {
				leafSet[n.Name] = true
			}
		}
	}
	t := &CTree{Prefix: prefix, Members: members}
	for n := range leafSet {
		t.Leaves = append(t.Leaves, n)
	}
	sort.Strings(t.Leaves)
	return t
}

func (d *refDeriver) chain(prefix string) *DelayChain {
	return (&deriver{m: d.m}).chain(prefix)
}

func refPinDirOf(in *netlist.Inst, pin string) (netlist.PinDir, bool) {
	if in.Cell != nil {
		if pd := in.Cell.Pin(pin); pd != nil {
			return pd.Dir, true
		}
		return netlist.In, false
	}
	if p := in.Sub.Port(pin); p != nil {
		return p.Dir, true
	}
	return netlist.In, false
}
