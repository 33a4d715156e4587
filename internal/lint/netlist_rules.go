package lint

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/handshake"
	"desync/internal/netlist"
)

// isControlInst reports whether an instance belongs to an inserted
// clock-replacement network rather than the datapath. In-memory designs
// carry Origin tags; designs re-read from Verilog only keep the naming
// schemes (G<id>_ for per-region cells, TPgen for the two-phase generator
// core), so both tests run. Control cells are exempt from the
// synchronous-netlist rules (their loops are the handshakes or the ring
// oscillator themselves) and are checked by the DS-*/TP-* families
// instead.
func isControlInst(in *netlist.Inst) bool {
	if handshake.IsControlOrigin(in.Origin) {
		return true
	}
	if ctrlnet.IsTPGenName(in.Name) {
		return true
	}
	_, ok := ctrlnet.Region(in.Name)
	return ok
}

// combDatapath reports whether the instance is a plain combinational
// datapath gate: the population the loop and dead-cone rules apply to.
func combDatapath(in *netlist.Inst) bool {
	return in.Cell != nil && in.Cell.Kind == netlist.KindComb && !isControlInst(in)
}

// checkNetlist runs the NL-* family over one module; errorsOnly skips the
// two rules whose catalog severity is Warning, NL-CONE and NL-NAME.
func (r *Report) checkNetlist(m *netlist.Module, opts Options, errorsOnly bool) {
	// NL-VALIDATE — structural invariants. Undriven nets are left to
	// NL-FLOAT, which locates them properly and honors MidFlow.
	for _, ve := range m.Validate(netlist.ValidateOptions{AllowUndriven: true}) {
		r.addf(RuleValidate, Error, m.Name, "", "", "["+ve.Rule+"] "+ve.Msg)
	}

	r.checkPins(m)
	if !opts.MidFlow {
		r.checkFloat(m)
	}
	v := newView(m)
	r.checkMultiDriven(v)
	r.checkCombLoops(v)
	if errorsOnly {
		return
	}
	r.checkDeadCones(v)
	r.checkNameClash(m)
}

// view is one checkNetlist pass's dense picture of a module: the rules
// keep their side tables in slices indexed by NetID and InstID instead of
// maps keyed by pointer, and every instance is classified once instead of
// once per rule that asks. A net or instance the module does not own (a
// connection written with SetConnUnchecked can reach one) has no slot;
// the rules that can meet one keep it in a small fallback map.
type view struct {
	m     *netlist.Module
	nets  int    // NetID slots: one past the largest NetID in m.Nets
	insts int    // InstID slots: one past the largest InstID in m.Insts
	comb  []bool // by InstID: a plain combinational datapath gate
}

func newView(m *netlist.Module) *view {
	v := &view{m: m}
	for _, n := range m.Nets {
		v.nets = max(v.nets, int(n.ID())+1)
	}
	for _, in := range m.Insts {
		v.insts = max(v.insts, int(in.ID())+1)
	}
	v.comb = make([]bool, v.insts)
	for _, in := range m.Insts {
		if id, ok := v.inst(in); ok {
			v.comb[id] = combDatapath(in)
		}
	}
	return v
}

// net returns n's slot, or false when the module does not own n.
func (v *view) net(n *netlist.Net) (int, bool) {
	id := int(n.ID())
	return id, id < v.nets && v.m.NetByID(n.ID()) == n
}

// inst returns in's slot, or false when the module does not own in.
func (v *view) inst(in *netlist.Inst) (int, bool) {
	id := int(in.ID())
	return id, id < v.insts && v.m.InstByID(in.ID()) == in
}

// isComb is combDatapath through the view's classification.
func (v *view) isComb(in *netlist.Inst) bool {
	if id, ok := v.inst(in); ok {
		return v.comb[id]
	}
	return combDatapath(in)
}

// reads reports whether pc connects a declared input pin. The rules take a
// connection's direction from PinConn.Dir, resolved from the cell or
// submodule when the connection was made, instead of looking the pin up by
// name. A pin the instance does not declare (only SetConnUnchecked writes
// one) carries In yet reads nothing, so an input connection also checks
// the declaration.
func reads(in *netlist.Inst, pc netlist.PinConn) bool {
	if pc.Dir != netlist.In {
		return false
	}
	if in.Cell == nil {
		return in.Sub.Port(pc.Pin) != nil
	}
	return in.Cell.Pin(pc.Pin) != nil
}

// checkPins flags unconnected instance pins: inputs as errors (the gate
// computes garbage), outputs as warnings (dead result, possibly intended).
func (r *Report) checkPins(m *netlist.Module) {
	for _, in := range m.Insts {
		var pins []netlist.PinDef
		if in.Cell != nil {
			pins = in.Cell.Pins
		} else if in.Sub != nil {
			for _, p := range in.Sub.Ports {
				pins = append(pins, netlist.PinDef{Name: p.Name, Dir: p.Dir})
			}
		}
		for _, p := range pins {
			if in.Conn(p.Name) != nil {
				continue
			}
			sev := Error
			if p.Dir == netlist.Out {
				sev = Warning
			}
			r.addf(RulePin, sev, m.Name, in.Name, "",
				fmt.Sprintf("pin %s (%s) is unconnected", p.Name, p.Dir))
		}
	}
}

// checkFloat flags nets that are read but never driven.
func (r *Report) checkFloat(m *netlist.Module) {
	for _, n := range m.Nets {
		if len(n.Sinks) > 0 && !n.HasDriver() {
			r.addf(RuleFloat, Error, m.Name, "", n.Name,
				fmt.Sprintf("net has %d sink(s) but no driver", len(n.Sinks)))
		}
	}
}

// checkMultiDriven counts a net's true drivers — output pins plus input
// ports — from the connection lists (not the per-net bookkeeping, which by
// construction can only remember one driver and so cannot show the clash).
// The count pass builds no strings; a second pass names the drivers of the
// nets it flagged.
func (r *Report) checkMultiDriven(v *view) {
	m := v.m
	count := make([]uint8, v.nets) // saturates at 2: "more than one"
	foreign := map[*netlist.Net]int{}
	multi := false
	add := func(n *netlist.Net) {
		if id, ok := v.net(n); !ok {
			foreign[n]++
			multi = multi || foreign[n] == 2
		} else if count[id] < 2 {
			count[id]++
			multi = multi || count[id] == 2
		}
	}
	for _, in := range m.Insts {
		for _, pc := range in.Conns() {
			if pc.Net != nil && pc.Dir == netlist.Out {
				add(pc.Net)
			}
		}
	}
	for _, p := range m.Ports {
		if p.Dir == netlist.In && p.Net != nil {
			add(p.Net)
		}
	}
	if !multi {
		return
	}
	drivers := map[*netlist.Net][]string{}
	for _, n := range m.Nets {
		if id, ok := v.net(n); ok && count[id] > 1 || !ok && foreign[n] > 1 {
			drivers[n] = nil
		}
	}
	for _, in := range m.Insts {
		for _, pc := range in.Conns() {
			if ds, ok := drivers[pc.Net]; ok && pc.Dir == netlist.Out {
				drivers[pc.Net] = append(ds, in.Name+"/"+pc.Pin)
			}
		}
	}
	for _, p := range m.Ports {
		if ds, ok := drivers[p.Net]; ok && p.Dir == netlist.In {
			drivers[p.Net] = append(ds, "port "+p.Name)
		}
	}
	for _, n := range m.Nets {
		if ds := drivers[n]; len(ds) > 1 {
			sort.Strings(ds)
			r.addf(RuleMulti, Error, m.Name, "", n.Name,
				fmt.Sprintf("net driven %d times: %s", len(ds), strings.Join(ds, ", ")))
		}
	}
}

// checkCombLoops finds cycles among plain combinational datapath gates. A
// synchronous netlist must be acyclic between registers; a loop means lost
// logic (or an async element mis-imported as gates). Control cells are
// excluded — their loops are the handshake cycles DS-SDC audits.
func (r *Report) checkCombLoops(v *view) {
	// Nodes are the comb datapath gates in module order; node maps an
	// InstID to its node, or -1.
	node := make([]int32, v.insts)
	for i := range node {
		node[i] = -1
	}
	var nodes []*netlist.Inst
	for _, in := range v.m.Insts {
		if id, ok := v.inst(in); ok && v.comb[id] {
			node[id] = int32(len(nodes))
			nodes = append(nodes, in)
		}
	}
	// Successor rows, compressed: node u's successors are
	// succ[start[u]:start[u+1]].
	start := make([]int32, len(nodes)+1)
	var succ []int32
	indeg := make([]int32, len(nodes))
	for u, in := range nodes {
		start[u] = int32(len(succ))
		for _, pc := range in.Conns() {
			if pc.Net == nil || pc.Dir != netlist.Out {
				continue
			}
			for _, s := range pc.Net.Sinks {
				if s.Inst == nil {
					continue
				}
				if id, ok := v.inst(s.Inst); ok && node[id] >= 0 {
					succ = append(succ, node[id])
					indeg[node[id]]++
				}
			}
		}
	}
	start[len(nodes)] = int32(len(succ))
	out := func(u int32) []int32 { return succ[start[u]:start[u+1]] }

	// Trim everything not on a cycle: peel zero-in-degree nodes forward,
	// then zero-out-degree nodes backward, so pure fan-in and fan-out of a
	// loop drop away and only the cycle members remain.
	removed := make([]bool, len(nodes))
	var stack []int32
	for u, d := range indeg {
		if d == 0 {
			stack = append(stack, int32(u))
		}
	}
	left := len(nodes)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		removed[u] = true
		left--
		for _, w := range out(u) {
			if indeg[w]--; indeg[w] == 0 && !removed[w] {
				stack = append(stack, w)
			}
		}
	}
	if left == 0 {
		return
	}
	pred := make([][]int32, len(nodes))
	outdeg := make([]int32, len(nodes))
	for u := range nodes {
		if removed[u] {
			continue
		}
		for _, w := range out(int32(u)) {
			if !removed[w] {
				pred[w] = append(pred[w], int32(u))
				outdeg[u]++
			}
		}
	}
	for u := range nodes {
		if !removed[u] && outdeg[u] == 0 {
			stack = append(stack, int32(u))
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		removed[u] = true
		for _, w := range pred[u] {
			if outdeg[w]--; outdeg[w] == 0 && !removed[w] {
				stack = append(stack, w)
			}
		}
	}
	// Group survivors into clusters, each the survivors reachable from the
	// first unclaimed one in module order, for one finding per loop nest
	// naming a bounded sample of members.
	seen := make([]bool, len(nodes))
	for u := range nodes {
		if removed[u] || seen[u] {
			continue
		}
		var member []string
		stack = append(stack[:0], int32(u))
		seen[u] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			member = append(member, nodes[x].Name)
			for _, w := range out(x) {
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
		r.addf(RuleLoop, Error, v.m.Name, member[0], "",
			fmt.Sprintf("combinational loop through %d gate(s): %s", len(member), strings.Join(sample, ", ")))
	}
}

// checkDeadCones flags combinational gates whose outputs never reach an
// observable point: an output port, a sequential or submodule input, or the
// control network. Dead cones are harmless in silicon but always mean
// either imported garbage or a flow stage that disconnected logic.
func (r *Report) checkDeadCones(v *view) {
	m := v.m
	observed := make([]bool, v.nets)
	live := make([]bool, v.insts)
	// Nets and driving gates the module does not own, reached through a
	// corrupt connection: still observed and walked, never reported.
	foreignNets := map[*netlist.Net]bool{}
	foreignLive := map[*netlist.Inst]bool{}
	var frontier []*netlist.Net
	observe := func(n *netlist.Net) {
		if n == nil {
			return
		}
		if id, ok := v.net(n); ok {
			if observed[id] {
				return
			}
			observed[id] = true
		} else {
			if foreignNets[n] {
				return
			}
			foreignNets[n] = true
		}
		frontier = append(frontier, n)
	}
	observeInputs := func(in *netlist.Inst) {
		for _, pc := range in.Conns() {
			if reads(in, pc) {
				observe(pc.Net)
			}
		}
	}
	for _, p := range m.Ports {
		if p.Dir == netlist.Out {
			observe(p.Net)
		}
	}
	for _, in := range m.Insts {
		if !v.isComb(in) {
			observeInputs(in)
		}
	}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		drv := n.Driver.Inst
		if drv == nil {
			continue
		}
		if id, ok := v.inst(drv); ok {
			if !v.comb[id] || live[id] {
				continue
			}
			live[id] = true
		} else {
			if !combDatapath(drv) || foreignLive[drv] {
				continue
			}
			foreignLive[drv] = true
		}
		observeInputs(drv)
	}
	for _, in := range m.Insts {
		id, ok := v.inst(in)
		if ok && v.comb[id] && !live[id] || !ok && combDatapath(in) && !foreignLive[in] {
			r.addf(RuleCone, Warning, m.Name, in.Name, "",
				"gate drives no port, register, or control input (dead logic cone)")
		}
	}
}

// checkNameClash warns about distinct identifiers that map to the same
// plain name under the escaped-name simplification of §3.2.1: backend tools
// that mangle hierarchy separators the same way would merge or rename them.
//
// A clash needs two distinct names with one simple form, and at most one
// name can be its own simple form: the simple form itself. So only the
// names SimpleName changes can be in a clash, and clashCandidates narrows
// them, by hash, to those that might be; each group of candidates then
// gains its plain member, if the module has one, by a name lookup.
func (r *Report) checkNameClash(m *netlist.Module) {
	nets := clashCandidates(len(m.Nets), func(i int) string { return m.Nets[i].Name })
	r.reportClashes(m.Name, "net", nets, func(k string) bool {
		n := m.Net(k)
		return n != nil && n.Name == k
	})
	insts := clashCandidates(len(m.Insts), func(i int) string { return m.Insts[i].Name })
	r.reportClashes(m.Name, "instance", insts, func(k string) bool {
		in := m.Inst(k)
		return in != nil && in.Name == k
	})
}

// renamed is one identifier SimpleName changes, with its simple form.
type renamed struct{ simple, name string }

// nameSeed seeds the simple-form hashes. A hash only narrows the search
// (every candidate is grouped by its simple form as a string), so the seed
// changes no report.
var nameSeed = maphash.MakeSeed()

// clashCandidates returns the identifiers among n names (name(i) is the
// i-th) that SimpleName changes and whose simple form hashes alike with
// another changed name's or with an unchanged name: the only ones that can
// clash. Each simple form is written into one scratch buffer and hashed,
// so no string is built for a name unless it is a candidate.
func clashCandidates(n int, name func(i int) string) []renamed {
	type hashed struct {
		h uint64
		i int
	}
	var buf []byte
	var ren []hashed // in index order
	for i := 0; i < n; i++ {
		var changed bool
		if buf, changed = core.AppendSimpleName(buf[:0], name(i)); changed {
			ren = append(ren, hashed{maphash.Bytes(nameSeed, buf), i})
		}
	}
	if len(ren) == 0 {
		return nil
	}
	// shared counts the changed names per hash, saturating at two; an
	// unchanged name with a hash already there takes it to two as well.
	shared := make(map[uint64]uint8, len(ren))
	for _, x := range ren {
		shared[x.h] = min(shared[x.h]+1, 2)
	}
	next := 0
	for i := 0; i < n; i++ {
		if next < len(ren) && ren[next].i == i {
			next++
			continue
		}
		h := maphash.String(nameSeed, name(i))
		if shared[h] == 1 {
			shared[h] = 2
		}
	}
	var out []renamed
	for _, x := range ren {
		if shared[x.h] == 2 {
			s := name(x.i)
			out = append(out, renamed{core.SimpleName(s), s})
		}
	}
	return out
}

// reportClashes groups the renamed identifiers of one kind by simple form
// and reports every group of two or more names, counting the plain name k
// itself when exists(k) and k is its own simple form.
func (r *Report) reportClashes(module, kind string, rs []renamed, exists func(k string) bool) {
	slices.SortFunc(rs, func(a, b renamed) int { return strings.Compare(a.simple, b.simple) })
	for i := 0; i < len(rs); {
		k := rs[i].simple
		j := i + 1
		for j < len(rs) && rs[j].simple == k {
			j++
		}
		plain := exists(k) && core.SimpleName(k) == k
		if j-i > 1 || plain {
			group := make([]string, 0, j-i+1)
			for _, x := range rs[i:j] {
				group = append(group, x.name)
			}
			if plain {
				group = append(group, k)
			}
			sort.Strings(group)
			f := Finding{Rule: RuleName, Severity: Warning, Module: module,
				Msg: fmt.Sprintf("%d %ss simplify to %q: %s", len(group), kind, k, strings.Join(group, ", "))}
			if kind == "net" {
				f.Net = group[0]
			} else {
				f.Inst = group[0]
			}
			r.add(f)
		}
		i = j
	}
}
