// Package equiv is the formal verification engine of the flow: it compiles
// the inserted controller network back out of the desynchronized netlist
// into an explicit token-marking model — the speed-independent state graph
// of the controller gates (latch-enable gC, request gC, completion AND,
// helper C-elements), with C-Muller rendezvous trees collapsed to atomic
// joins and matched delay elements modelled as lowest-priority channel
// arrivals (fundamental mode) — and explores every reachable marking to
// prove three properties of the control network:
//
//   - deadlock-freedom: every reachable marking enables a transition;
//   - safety: no latch overwrite — a master enable may only reopen once its
//     slave has captured, a slave only once every consumer has, and every
//     capture latches exactly the generation the synchronous schedule
//     assigns to it;
//   - flow equivalence: the per-latch projection of captures follows the
//     synchronous schedule (the characterization of Paykin et al.,
//     arXiv:2004.10655), tracked with bounded per-region generation
//     counters.
//
// The model is extracted from pin connectivity, not from net names, so the
// known-bad fixtures (rewired acks, swapped reset phases, degenerate
// C-trees) are modelled faithfully and their failures are found as concrete
// counterexample traces. It complements internal/faults (dynamic campaigns)
// and internal/lint (structural rules) with exhaustive state-space proofs,
// and cross-validates the model against randomized internal/sim traces.
package equiv

import (
	"fmt"
	"strings"

	"desync/internal/cdet"
	"desync/internal/ctrlnet"
	"desync/internal/lint"
	"desync/internal/netlist"
)

// sigKind classifies a model signal.
type sigKind uint8

const (
	kindG       sigKind = iota // latch-enable gC output (CGMX1/CGSX1)
	kindRO                     // request-out gC output (CROX1)
	kindB                      // opened-since-handshake bit (CBX1)
	kindAI                     // acknowledge AND (ANDN3X1), combinational
	kindJoin                   // collapsed C-Muller rendezvous tree
	kindDelay                  // matched delay element output (channel arrival)
	kindEnvSrc                 // environment request producer (input port)
	kindEnvSink                // environment acknowledge consumer (input port)
)

func (k sigKind) String() string {
	switch k {
	case kindG:
		return "g"
	case kindRO:
		return "ro"
	case kindB:
		return "b"
	case kindAI:
		return "ai"
	case kindJoin:
		return "join"
	case kindDelay:
		return "delay"
	case kindEnvSrc:
		return "env-req"
	case kindEnvSink:
		return "env-ack"
	}
	return "?"
}

// operand references a model signal, or a constant when sig < 0. Stuck
// operands model undriven or unrecognized sources: they never transition.
type operand struct {
	sig   int
	stuck bool // constant value when sig < 0
}

// signal is one state-holding node of the model, addressed by the design
// net it corresponds to (so traces, sim monitors and replay all speak net
// names).
type signal struct {
	name    string
	kind    sigKind
	region  int  // owning region; -1 for free-standing joins
	master  bool // master-side controller gate
	init    bool // value after reset release
	a, b, c operand
	terms   []operand // kindJoin rendezvous inputs
}

// genRef points one generation source (a master-capture input) or one
// consumer (of a slave's output) at its producing signal.
type genRef struct {
	kind   genKind
	region int // pred/succ region for genSlave/genMaster/genCons
	sig    int // env signal index for genEnv/genEnvSink
}

type genKind uint8

const (
	genSlave   genKind = iota // pred region's slave output (the normal case)
	genMaster                 // pred region's master output (unusual wiring)
	genEnv                    // environment input channel
	genCons                   // consuming region's master (consumer list)
	genEnvSink                // environment consumer (consumer list)
)

// Model is the extracted token-marking model of one desynchronized module.
type Model struct {
	Design  string
	Regions []int

	sigs  []signal
	sigOf map[string]int // net name -> signal index

	// staticSigs caches the StaticSignals export (computed on demand; the
	// model is immutable after extraction).
	staticSigs []StaticSignal

	// Per-region controller gate signal indexes (-1 when the gate is
	// missing from the netlist; operands referencing it become stuck).
	mg, sg, mro, sro, mb, sb, mai, sai map[int]int

	// Counter layout: for each region (sorted) mGen then sGen, then one
	// counter per environment signal in creation order.
	nCtr   int
	mCtr   map[int]int
	sCtr   map[int]int
	envCtr map[int]int // env signal index -> counter index

	preds     map[int][]genRef // master-capture generation sources
	consumers map[int][]genRef // who must consume a slave's datum

	// Findings collects extraction-level diagnostics (rule EQ-MODEL):
	// unmodelled drivers, stuck sources, unusual channel wiring.
	Findings []lint.Finding
}

// SignalNames returns the design net names of all model signals, visible
// ones (latch enables and environment channels) first.
func (m *Model) SignalNames() (visible, hidden []string) {
	for i := range m.sigs {
		if m.visible(i) {
			visible = append(visible, m.sigs[i].name)
		} else {
			hidden = append(hidden, m.sigs[i].name)
		}
	}
	return visible, hidden
}

// visible reports whether a signal's transitions are property-relevant:
// latch enables fire captures and reopens, environment channels advance the
// input/output schedules. Everything else is internal handshake plumbing.
func (m *Model) visible(i int) bool {
	switch m.sigs[i].kind {
	case kindG, kindEnvSrc, kindEnvSink:
		return true
	}
	return false
}

func (m *Model) addFinding(sev lint.Severity, net, msg string) {
	m.Findings = append(m.Findings, lint.Finding{
		Rule: RuleModel, Severity: sev, Module: m.Design, Net: net, Msg: msg,
	})
}

// extractor carries the working state of FromNetwork.
type extractor struct {
	m   *Model
	mod *netlist.Module
	net map[*netlist.Net]int // resolved net -> signal index
}

// FromNetwork extracts the controller-network model on top of an
// already-derived control-network IR. It fails when the module has no
// controller regions or uses completion detection (whose request timing
// lives in the dual-rail datapath, outside this model — see DESIGN.md §10).
//
// The IR supplies the region list and the controller gate instances; every
// operand is still resolved from pin connectivity, not from net names, so
// the known-bad fixtures (rewired acks, swapped reset phases, degenerate
// C-trees) are modelled faithfully as built.
func FromNetwork(mod *netlist.Module, cn *ctrlnet.Network) (*Model, error) {
	if cdet.Used(mod) {
		return nil, fmt.Errorf("equiv: %s uses dual-rail completion detection; the marking model covers matched-delay controllers only", mod.Name)
	}
	m := &Model{
		Design: mod.Name,
		sigOf:  map[string]int{},
		mg:     map[int]int{}, sg: map[int]int{},
		mro: map[int]int{}, sro: map[int]int{},
		mb: map[int]int{}, sb: map[int]int{},
		mai: map[int]int{}, sai: map[int]int{},
		mCtr: map[int]int{}, sCtr: map[int]int{}, envCtr: map[int]int{},
		preds: map[int][]genRef{}, consumers: map[int][]genRef{},
	}
	x := &extractor{m: m, mod: mod, net: map[*netlist.Net]int{}}

	// Pass 1: create a signal for every controller gate output that exists.
	// The reset phase is read from the actual cell (CGMX1 resets
	// transparent, CGSX1 opaque), so a swapped-phase netlist is modelled as
	// built, not as intended.
	m.Regions = append(m.Regions, cn.Regions...)
	if len(m.Regions) == 0 {
		return nil, fmt.Errorf("equiv: %s has no latch controllers (not a desynchronized design)", mod.Name)
	}
	for _, g := range m.Regions {
		for _, master := range []bool{true, false} {
			gs := cn.Controllers[g].Master
			if !master {
				gs = cn.Controllers[g].Slave
			}
			x.gateSignal(gs.G, ctrlnet.CtrlGate(g, master, ctrlnet.GateG), "Q", kindG, g, master, gs.G)
			x.gateSignal(gs.RO, ctrlnet.CtrlGate(g, master, ctrlnet.GateRO), "Q", kindRO, g, master, gs.G)
			x.gateSignal(gs.B, ctrlnet.CtrlGate(g, master, ctrlnet.GateB), "Q", kindB, g, master, gs.G)
			x.gateSignal(gs.AI, ctrlnet.CtrlGate(g, master, ctrlnet.GateAI), "Z", kindAI, g, master, gs.G)
		}
	}

	// Pass 2: resolve every gate's input pins into operands, walking
	// through delay elements (timing, not logic) and collapsing C-trees
	// into atomic joins. Initial values follow from the reset network:
	// requests, acknowledges and joins all reset low.
	for _, g := range m.Regions {
		x.wireController(g, true, cn.Controllers[g].Master)
		x.wireController(g, false, cn.Controllers[g].Slave)
	}

	// Pass 3: derive the generation topology — which productions feed each
	// master capture, and who must consume each slave's output — from the
	// resolved request and acknowledge operands.
	for _, g := range m.Regions {
		if i := m.mg[g]; i >= 0 {
			m.preds[g] = x.expandGen(m.sigs[i].b, 0)
		}
		if i := m.sg[g]; i >= 0 {
			m.consumers[g] = x.expandCons(m.sigs[i].a, 0)
		}
	}
	m.layoutCounters()
	return m, nil
}

// gateSignal registers the output net of one controller gate as a model
// signal; a missing gate (or one with a dangling output) is recorded so
// later operand resolution falls back to a stuck value with a finding.
// gGate is the same controller half's latch-enable gate, whose cell decides
// the reset phase.
func (x *extractor) gateSignal(in *netlist.Inst, name, outPin string, kind sigKind, region int, master bool, gGate *netlist.Inst) {
	idxMap := x.m.gateIndex(kind, master)
	if in == nil || in.Conn(outPin) == nil {
		idxMap[region] = -1
		x.m.addFinding(lint.Warning, "", fmt.Sprintf("controller gate %s missing; its output is modelled stuck low", name))
		return
	}
	n := in.Conn(outPin)
	init := false
	if kind == kindG || kind == kindB {
		// CGMX1 resets transparent (high); CGSX1 opaque. The b bit has no
		// reset pin and settles to its g's reset value. Reading the cell
		// here (rather than trusting the M/S prefix) is what makes the
		// swapped-phase fixture observable.
		if gGate != nil && gGate.Cell != nil {
			init = gGate.Cell.Name == "CGMX1"
		}
	}
	s := signal{name: n.Name, kind: kind, region: region, master: master, init: init}
	x.m.sigs = append(x.m.sigs, s)
	idx := len(x.m.sigs) - 1
	idxMap[region] = idx
	x.net[n] = idx
	x.m.sigOf[n.Name] = idx
}

// gateIndex returns the per-region index map for one controller gate kind.
func (m *Model) gateIndex(kind sigKind, master bool) map[int]int {
	switch kind {
	case kindG:
		if master {
			return m.mg
		}
		return m.sg
	case kindRO:
		if master {
			return m.mro
		}
		return m.sro
	case kindB:
		if master {
			return m.mb
		}
		return m.sb
	default:
		if master {
			return m.mai
		}
		return m.sai
	}
}

// wireController resolves the input operands of the four gates of one
// controller half from their pin connections.
func (x *extractor) wireController(g int, master bool, gs ctrlnet.Gates) {
	m := x.m
	get := func(in *netlist.Inst, pin string) operand {
		if in == nil {
			return operand{sig: -1}
		}
		return x.resolve(in.Conn(pin), g, master, 0)
	}
	set := func(idx int, a, b, c operand) {
		if idx < 0 {
			return
		}
		m.sigs[idx].a, m.sigs[idx].b, m.sigs[idx].c = a, b, c
	}
	// Pin roles per handshake.AddController: g{A:ao B:ri}, ro{A:g B:ao},
	// b{A:g B:ri}, ai{A:ri B:g C:b}.
	set(m.gateIndex(kindG, master)[g], get(gs.G, "A"), get(gs.G, "B"), operand{sig: -1})
	set(m.gateIndex(kindRO, master)[g], get(gs.RO, "A"), get(gs.RO, "B"), operand{sig: -1})
	set(m.gateIndex(kindB, master)[g], get(gs.B, "A"), get(gs.B, "B"), operand{sig: -1})
	set(m.gateIndex(kindAI, master)[g], get(gs.AI, "A"), get(gs.AI, "B"), get(gs.AI, "C"))
}

const maxResolveDepth = 64

// resolve maps a design net onto a model operand: an existing signal, a
// lazily created join, delay-arrival or environment signal, or a stuck
// constant (with a finding). region/master locate the consuming controller
// so environment channels know which ai/ro to watch.
func (x *extractor) resolve(n *netlist.Net, region int, master bool, depth int) operand {
	m := x.m
	if n == nil {
		m.addFinding(lint.Warning, "", fmt.Sprintf("region %d: unconnected controller pin modelled stuck low", region))
		return operand{sig: -1}
	}
	if idx, ok := x.net[n]; ok {
		return operand{sig: idx}
	}
	if depth > maxResolveDepth {
		m.addFinding(lint.Warning, n.Name, "resolution depth exceeded; source modelled stuck low")
		return operand{sig: -1}
	}
	drv := n.Driver
	if drv.Inst == nil {
		if drv.Pin != "" {
			return x.envSignal(n, region, master)
		}
		m.addFinding(lint.Warning, n.Name, fmt.Sprintf("region %d: undriven net modelled stuck low", region))
		return operand{sig: -1}
	}
	in := drv.Inst
	if in.Cell == nil {
		m.addFinding(lint.Warning, n.Name, "submodule driver cannot be modelled; stuck low")
		return operand{sig: -1}
	}
	switch {
	case in.Cell.Kind == netlist.KindTie:
		v := false
		for out, fn := range in.Cell.Functions {
			if in.Conn(out) == n {
				v = fn.Eval(nil).Bool()
			}
		}
		m.addFinding(lint.Warning, n.Name, fmt.Sprintf("region %d: tied-off source modelled stuck %v", region, v))
		return operand{sig: -1, stuck: v}
	case ctrlnet.IsDelayInstName(in.Name):
		return x.delaySignal(n, region, master, depth)
	case in.Cell.Kind == netlist.KindCElem:
		return x.joinSignal(n, region, master, depth)
	}
	m.addFinding(lint.Warning, n.Name,
		fmt.Sprintf("region %d: unmodelled driver %s (%s); source stuck low", region, in.Name, in.Cell.Name))
	return operand{sig: -1}
}

// delaySignal models the output of a matched delay-element chain as an
// explicit channel-arrival signal that follows its logical source. Arrivals
// are the model's timing discipline: the explorer fires them only from
// control-stable markings (no controller gate excited), which is the
// fundamental-mode assumption every matched-delay desynchronization rests
// on — the sized chain covers the datapath's settling time, and the
// controller cascade between two arrivals is a handful of gate delays, far
// inside that budget. Without this, pure speed-independent interleaving
// reaches orderings the delay elements exclude by construction (a request
// round trip overtaking a one-gate local settling), which show up as
// phantom deadlocks and overwrites.
func (x *extractor) delaySignal(n *netlist.Net, region int, master bool, depth int) operand {
	m := x.m
	s := signal{name: n.Name, kind: kindDelay, region: region, master: master}
	m.sigs = append(m.sigs, s)
	idx := len(m.sigs) - 1
	x.net[n] = idx
	m.sigOf[n.Name] = idx
	// Walk the chain back to the net feeding its first stage, then resolve
	// that as the arrival's source.
	src := n
	for i := 0; i < maxResolveDepth; i++ {
		in := src.Driver.Inst
		if in == nil || in.Cell == nil || !ctrlnet.IsDelayInstName(in.Name) {
			break
		}
		src = delayInput(in)
		if src == nil {
			break
		}
	}
	m.sigs[idx].a = x.resolve(src, region, master, depth+1)
	return operand{sig: idx}
}

// delayInput steps one gate backwards through a delay-element chain: AND
// stages carry the bypassed input on pin B, buffers and muxes forward pin A
// (the shortest tap — tap choice shifts timing, not logic).
func delayInput(in *netlist.Inst) *netlist.Net {
	if strings.HasPrefix(in.Cell.Name, "AND") && in.Conn("B") != nil {
		return in.Conn("B")
	}
	if n := in.Conn("A"); n != nil {
		return n
	}
	for _, p := range in.Cell.Inputs() {
		if in.Conn(p) != nil {
			return in.Conn(p)
		}
	}
	return nil
}

// envSignal models an input-port-driven channel as an eager environment:
// a request source raises the moment its acknowledge clears (watching the
// controller's ai), an acknowledge sink mirrors the controller's ro. Each
// carries a schedule counter so input consumption and output production
// stay in lockstep with the latch generations.
func (x *extractor) envSignal(n *netlist.Net, region int, master bool) operand {
	m := x.m
	kind := kindEnvSink
	watch := m.gateIndex(kindRO, master)[region]
	if onRequestPath(n, region) {
		kind = kindEnvSrc
		watch = m.gateIndex(kindAI, master)[region]
	}
	s := signal{name: n.Name, kind: kind, region: region, master: master, a: operand{sig: watch}}
	if watch < 0 {
		s.a = operand{sig: -1}
	}
	m.sigs = append(m.sigs, s)
	idx := len(m.sigs) - 1
	x.net[n] = idx
	m.sigOf[n.Name] = idx
	return operand{sig: idx}
}

// onRequestPath classifies an environment port: request inputs follow the
// flow's G<id>_env_ri naming; anything else acting as a port-driven channel
// is an acknowledge. The suffix fallback inside IsEnvRequestNet keeps
// mutated netlists modellable.
func onRequestPath(n *netlist.Net, region int) bool {
	return ctrlnet.IsEnvRequestNet(n.Name, region)
}

// joinSignal collapses the maximal C-element tree driving n into one atomic
// rendezvous signal over the tree's leaf operands — the model's symmetry
// reduction: internal C-tree nets never appear as state bits, so tree shape
// (which the flow balances for timing) does not blow up the marking space.
func (x *extractor) joinSignal(n *netlist.Net, region int, master bool, depth int) operand {
	m := x.m
	leaves := celemLeaves(n)
	s := signal{name: n.Name, kind: kindJoin, region: region, master: master}
	m.sigs = append(m.sigs, s)
	idx := len(m.sigs) - 1
	x.net[n] = idx
	m.sigOf[n.Name] = idx
	terms := make([]operand, 0, len(leaves))
	for _, leaf := range leaves {
		terms = append(terms, x.resolve(leaf, region, master, depth+1))
	}
	m.sigs[idx].terms = terms
	return operand{sig: idx}
}

// celemLeaves walks the connected C-element component feeding root and
// returns its input nets (those not produced inside the component).
func celemLeaves(root *netlist.Net) []*netlist.Net {
	var leaves []*netlist.Net
	seen := map[*netlist.Net]bool{}
	var walk func(n *netlist.Net, depth int)
	walk = func(n *netlist.Net, depth int) {
		if n == nil || seen[n] || depth > maxResolveDepth {
			return
		}
		seen[n] = true
		in := n.Driver.Inst
		if in == nil || in.Cell == nil || in.Cell.Kind != netlist.KindCElem {
			leaves = append(leaves, n)
			return
		}
		for _, p := range in.Cell.Inputs() {
			walk(in.Conn(p), depth+1)
		}
	}
	in := root.Driver.Inst
	if in != nil && in.Cell != nil {
		for _, p := range in.Cell.Inputs() {
			walk(in.Conn(p), 0)
		}
	}
	return leaves
}

// expandGen flattens a master's request operand into generation sources:
// joins expand to their leaves, slave request-outs are the normal pred
// channels, environment sources carry their own schedule. Anything else is
// reported and excluded from generation tracking (the control excitation
// still uses it faithfully).
func (x *extractor) expandGen(op operand, depth int) []genRef {
	m := x.m
	if op.sig < 0 || depth > maxResolveDepth {
		return nil
	}
	s := &m.sigs[op.sig]
	switch s.kind {
	case kindRO:
		if s.master {
			m.addFinding(lint.Warning, s.name,
				fmt.Sprintf("request sourced from region %d master (expected a slave request-out)", s.region))
			return []genRef{{kind: genMaster, region: s.region}}
		}
		return []genRef{{kind: genSlave, region: s.region}}
	case kindEnvSrc:
		return []genRef{{kind: genEnv, sig: op.sig}}
	case kindDelay:
		return x.expandGen(s.a, depth+1)
	case kindJoin:
		var out []genRef
		for _, t := range s.terms {
			out = append(out, x.expandGen(t, depth+1)...)
		}
		return out
	}
	m.addFinding(lint.Warning, s.name,
		fmt.Sprintf("request sourced from %s signal; excluded from generation tracking", s.kind))
	return nil
}

// expandCons flattens a slave's acknowledge operand into the consumers that
// must capture its output before it may reopen.
func (x *extractor) expandCons(op operand, depth int) []genRef {
	m := x.m
	if op.sig < 0 || depth > maxResolveDepth {
		return nil
	}
	s := &m.sigs[op.sig]
	switch s.kind {
	case kindAI:
		if !s.master {
			m.addFinding(lint.Warning, s.name,
				fmt.Sprintf("acknowledge sourced from region %d slave (expected a master acknowledge)", s.region))
			return nil
		}
		return []genRef{{kind: genCons, region: s.region}}
	case kindEnvSink:
		return []genRef{{kind: genEnvSink, sig: op.sig}}
	case kindDelay:
		return x.expandCons(s.a, depth+1)
	case kindJoin:
		var out []genRef
		for _, t := range s.terms {
			out = append(out, x.expandCons(t, depth+1)...)
		}
		return out
	}
	m.addFinding(lint.Warning, s.name,
		fmt.Sprintf("acknowledge sourced from %s signal; excluded from consumption tracking", s.kind))
	return nil
}

// layoutCounters assigns the per-region and per-environment generation
// counters their slots in the state vector.
func (m *Model) layoutCounters() {
	n := 0
	for _, g := range m.Regions {
		m.mCtr[g] = n
		m.sCtr[g] = n + 1
		n += 2
	}
	for i := range m.sigs {
		switch m.sigs[i].kind {
		case kindEnvSrc, kindEnvSink:
			m.envCtr[i] = n
			n++
		}
	}
	m.nCtr = n
}
