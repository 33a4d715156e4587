package lint

import (
	"fmt"
	"sort"
	"strings"

	"desync/internal/netlist"
)

// The NL-* rules as they were written before the dense rewrite: maps keyed
// by *Net, *Inst and name, and a driver string built for every output pin.
// They are kept as the reference the differential tests hold the dense
// rules to; only the names differ from the originals.

// refCheckNetlist is checkNetlist over the reference rules.
func (r *Report) refCheckNetlist(m *netlist.Module, opts Options) {
	for _, ve := range m.Validate(netlist.ValidateOptions{AllowUndriven: true}) {
		r.addf(RuleValidate, Error, m.Name, "", "", "["+ve.Rule+"] "+ve.Msg)
	}

	r.checkPins(m)
	if !opts.MidFlow {
		r.checkFloat(m)
	}
	r.refCheckMultiDriven(m)
	r.refCheckCombLoops(m)
	r.refCheckDeadCones(m)
	r.refCheckNameClash(m)
}

// refPinDirOf resolves a connection's direction for cell and submodule
// instances alike; ok is false for pins the instance does not declare.
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

// refSimpleName is core.SimpleName as it was before its no-allocation fast
// path: it builds the rewritten name before knowing whether anything
// changes.
func refSimpleName(s string) string {
	base, idx, isBus := netlist.BusBase(s)
	body := s
	if isBus {
		body = base
	}
	out := make([]byte, 0, len(body))
	changed := false
	for i := 0; i < len(body); i++ {
		c := body[i]
		ok := c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			(i > 0 && c >= '0' && c <= '9')
		if ok {
			out = append(out, c)
		} else {
			out = append(out, '_')
			changed = true
		}
	}
	if !changed {
		return s
	}
	if isBus {
		return fmt.Sprintf("%s[%d]", out, idx)
	}
	return string(out)
}

// refCheckMultiDriven counts a net's true drivers — output pins plus input
// ports — from the connection maps (not the per-net bookkeeping, which by
// construction can only remember one driver and so cannot show the clash).
func (r *Report) refCheckMultiDriven(m *netlist.Module) {
	drivers := map[*netlist.Net][]string{}
	for _, in := range m.Insts {
		for _, pc := range in.Conns() {
			pin, n := pc.Pin, pc.Net
			if n == nil {
				continue
			}
			if dir, ok := refPinDirOf(in, pin); ok && dir == netlist.Out {
				drivers[n] = append(drivers[n], in.Name+"/"+pin)
			}
		}
	}
	for _, p := range m.Ports {
		if p.Dir == netlist.In && p.Net != nil {
			drivers[p.Net] = append(drivers[p.Net], "port "+p.Name)
		}
	}
	for _, n := range m.SortedNets() {
		if ds := drivers[n]; len(ds) > 1 {
			sort.Strings(ds)
			r.addf(RuleMulti, Error, m.Name, "", n.Name,
				fmt.Sprintf("net driven %d times: %s", len(ds), strings.Join(ds, ", ")))
		}
	}
}

// refCheckCombLoops finds cycles among plain combinational datapath gates. A
// synchronous netlist must be acyclic between registers; a loop means lost
// logic (or an async element mis-imported as gates). Control cells are
// excluded — their loops are the handshake cycles DS-SDC audits.
func (r *Report) refCheckCombLoops(m *netlist.Module) {
	// Adjacency over comb datapath instances.
	idx := map[*netlist.Inst]int{}
	var nodes []*netlist.Inst
	for _, in := range m.Insts {
		if combDatapath(in) {
			idx[in] = len(nodes)
			nodes = append(nodes, in)
		}
	}
	succ := make([][]int, len(nodes))
	indeg := make([]int, len(nodes))
	for _, in := range nodes {
		u := idx[in]
		for _, pc := range in.Conns() {
			pin, n := pc.Pin, pc.Net
			if dir, ok := refPinDirOf(in, pin); !ok || dir != netlist.Out || n == nil {
				continue
			}
			for _, s := range n.Sinks {
				if s.Inst == nil {
					continue
				}
				if v, ok := idx[s.Inst]; ok {
					succ[u] = append(succ[u], v)
					indeg[v]++
				}
			}
		}
	}
	// Trim everything not on a cycle: peel zero-in-degree nodes forward,
	// then zero-out-degree nodes backward, so pure fan-in and fan-out of a
	// loop drop away and only the cycle members remain.
	queue := []int{}
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	removed := make([]bool, len(nodes))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		removed[u] = true
		for _, v := range succ[u] {
			if indeg[v]--; indeg[v] == 0 && !removed[v] {
				queue = append(queue, v)
			}
		}
	}
	pred := make([][]int, len(nodes))
	outdeg := make([]int, len(nodes))
	for u, vs := range succ {
		if removed[u] {
			continue
		}
		for _, v := range vs {
			if !removed[v] {
				pred[v] = append(pred[v], u)
				outdeg[u]++
			}
		}
	}
	for v := range nodes {
		if !removed[v] && outdeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		removed[u] = true
		for _, v := range pred[u] {
			if outdeg[v]--; outdeg[v] == 0 && !removed[v] {
				queue = append(queue, v)
			}
		}
	}
	// Group survivors into weakly-connected clusters for one finding per
	// loop nest, naming a bounded sample of members.
	seen := make([]bool, len(nodes))
	for v := range nodes {
		if removed[v] || seen[v] {
			continue
		}
		var member []string
		stack := []int{v}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			member = append(member, nodes[u].Name)
			for _, w := range succ[u] {
				if !removed[w] && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Strings(member)
		sample := member
		if len(sample) > 6 {
			sample = sample[:6]
		}
		r.addf(RuleLoop, Error, m.Name, member[0], "",
			fmt.Sprintf("combinational loop through %d gate(s): %s", len(member), strings.Join(sample, ", ")))
	}
}

// refCheckDeadCones flags combinational gates whose outputs never reach an
// observable point: an output port, a sequential or submodule input, or the
// control network. Dead cones are harmless in silicon but always mean
// either imported garbage or a flow stage that disconnected logic.
func (r *Report) refCheckDeadCones(m *netlist.Module) {
	observed := map[*netlist.Net]bool{}
	var frontier []*netlist.Net
	observe := func(n *netlist.Net) {
		if n != nil && !observed[n] {
			observed[n] = true
			frontier = append(frontier, n)
		}
	}
	for _, p := range m.Ports {
		if p.Dir == netlist.Out {
			observe(p.Net)
		}
	}
	for _, in := range m.Insts {
		if combDatapath(in) {
			continue
		}
		for _, pc := range in.Conns() {
			pin, n := pc.Pin, pc.Net
			if dir, ok := refPinDirOf(in, pin); ok && dir == netlist.In {
				observe(n)
			}
		}
	}
	live := map[*netlist.Inst]bool{}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		drv := n.Driver.Inst
		if drv == nil || !combDatapath(drv) || live[drv] {
			continue
		}
		live[drv] = true
		for _, pc := range drv.Conns() {
			pin, in := pc.Pin, pc.Net
			if dir, ok := refPinDirOf(drv, pin); ok && dir == netlist.In {
				observe(in)
			}
		}
	}
	for _, in := range m.Insts {
		if combDatapath(in) && !live[in] {
			r.addf(RuleCone, Warning, m.Name, in.Name, "",
				"gate drives no port, register, or control input (dead logic cone)")
		}
	}
}

// refCheckNameClash warns about distinct identifiers that map to the same
// plain name under the escaped-name simplification of §3.2.1: backend tools
// that mangle hierarchy separators the same way would merge or rename them.
func (r *Report) refCheckNameClash(m *netlist.Module) {
	report := func(kind string, names map[string][]string) {
		var keys []string
		for k, group := range names {
			if len(group) > 1 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			group := names[k]
			sort.Strings(group)
			f := Finding{Rule: RuleName, Severity: Warning, Module: m.Name,
				Msg: fmt.Sprintf("%d %ss simplify to %q: %s", len(group), kind, k, strings.Join(group, ", "))}
			if kind == "net" {
				f.Net = group[0]
			} else {
				f.Inst = group[0]
			}
			r.add(f)
		}
	}
	nets := map[string][]string{}
	for _, n := range m.Nets {
		nets[refSimpleName(n.Name)] = append(nets[refSimpleName(n.Name)], n.Name)
	}
	report("net", nets)
	insts := map[string][]string{}
	for _, in := range m.Insts {
		insts[refSimpleName(in.Name)] = append(insts[refSimpleName(in.Name)], in.Name)
	}
	report("instance", insts)
}
