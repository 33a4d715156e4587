package verilog

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"desync/internal/netlist"
)

// Write renders the design as structural Verilog: submodules first, top
// last. Bus-bit net names ("data[3]") are re-grouped into declared buses so
// that a written netlist re-imports with identical names — which the
// grouping bus heuristic (§3.2.2) depends on. A name that is not a simple
// identifier, or is a reserved word, is written escaped.
//
// Every module is planned before any text is written: bus membership and
// the written length of each net live in tables indexed by NetID, so the
// text is sized exactly and built once, in the buffer the returned string
// shares.
func Write(d *netlist.Design) string {
	w := &writer{shapes: map[*netlist.Module][]portGroup{}}
	planned := map[string]bool{}
	var visit func(m *netlist.Module)
	visit = func(m *netlist.Module) {
		if planned[m.Name] {
			return
		}
		planned[m.Name] = true
		for _, in := range m.Insts {
			if in.Sub != nil {
				visit(in.Sub)
			}
		}
		w.mods = append(w.mods, w.plan(m))
	}
	visit(d.Top)
	size := 0
	for _, mw := range w.mods {
		size += mw.size
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, mw := range w.mods {
		mw.write(&sb)
	}
	return sb.String()
}

// writer carries one Write: the planned modules in output order and the
// connection grouping of every submodule instantiated.
type writer struct {
	mods   []*moduleWriter
	shapes map[*netlist.Module][]portGroup
}

// moduleWriter is one module's plan.
type moduleWriter struct {
	w     *writer
	m     *netlist.Module
	nets  []netForm  // by NetID
	buses []bus      // qualified buses, sorted by base
	ports []portForm // by port index
	wires string     // wire declarations, one line each, in creation order
	lines []span     // the lines of wires, sorted
	size  int        // length of the module's text
}

// netForm is how one net of the module is written.
type netForm struct {
	busBit bool  // a bit of a qualified bus: written base[index]
	port   bool  // named like a port: the header declares it
	len    int32 // length of the written reference
}

// bus is a bus declaration rebuilt from bit names: a base qualifies when
// no scalar net carries the base name and no index repeats.
type bus struct {
	base     string
	min, max int
	header   bool // a port base: declared by the header
	wire     bool // declared by a wire line
}

// portForm places a port in the header, which lists each base once, at
// its first port: a bit of a qualified bus under the bus's base, any
// other port under its own name.
type portForm struct {
	base  string
	bus   int // index into buses of the bus named base, -1 for none
	first bool
}

// span is one line of moduleWriter.wires.
type span struct{ lo, hi int32 }

// portGroup is one connection of a submodule instance: a scalar port, or
// the ports sharing a bus base, MSB-first in the submodule's port order.
type portGroup struct {
	base   string
	pins   []string
	scalar bool // a single port named base: written only when connected
}

// plan builds the module's tables, renders and sorts its wire lines, and
// sizes its text.
func (w *writer) plan(m *netlist.Module) *moduleWriter {
	mw := &moduleWriter{w: w, m: m}
	slots := 0
	for _, n := range m.Nets {
		slots = max(slots, int(n.ID())+1)
	}
	mw.nets = make([]netForm, slots)
	mw.qualifyBuses()
	mw.placePorts()
	for _, n := range m.Nets {
		f := &mw.nets[n.ID()]
		f.len = int32(refLen(n.Name, f.busBit))
	}
	mw.renderWires()

	size := len("module  ();\n") + identLen(m.Name) + len(mw.wires) + len("endmodule\n\n")
	sep := 0
	for i, f := range mw.ports {
		if !f.first {
			continue
		}
		size += sep + identLen(f.base)
		sep = len(", ")
		size += len("   ;\n") + len(m.Ports[i].Dir.String()) + identLen(f.base)
		if f.bus >= 0 {
			b := mw.buses[f.bus]
			size += len(" [:]") + intLen(b.max) + intLen(b.min)
		}
	}
	for _, p := range m.Ports {
		if aliased(p) {
			size += len("  assign  = ;\n") + identLen(p.Name) + mw.refLen(p.Net)
		}
	}
	for _, in := range m.Insts {
		size += mw.instLen(in)
	}
	mw.size = size
	return mw
}

// qualifyBuses groups the module's bus-bit names by base and keeps the
// bases that qualify. Sorting the bits by base and index puts each
// candidate bus, and any repeated index, in one run.
func (mw *moduleWriter) qualifyBuses() {
	type bit struct {
		base string
		idx  int
		id   netlist.NetID
	}
	var bits []bit
	for _, n := range mw.m.Nets {
		if base, idx, ok := netlist.BusBase(n.Name); ok {
			bits = append(bits, bit{base, idx, n.ID()})
		}
	}
	slices.SortFunc(bits, func(a, b bit) int {
		if c := strings.Compare(a.base, b.base); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for i, j := 0, 0; i < len(bits); i = j {
		ok := !mw.scalarNet(bits[i].base)
		for j = i + 1; j < len(bits) && bits[j].base == bits[i].base; j++ {
			ok = ok && bits[j].idx != bits[j-1].idx
		}
		if !ok {
			continue
		}
		mw.buses = append(mw.buses, bus{base: bits[i].base, min: bits[i].idx, max: bits[j-1].idx})
		for _, b := range bits[i:j] {
			mw.nets[b.id].busBit = true
		}
	}
}

// scalarNet reports whether the module has a net of that name without
// a bus-bit suffix.
func (mw *moduleWriter) scalarNet(name string) bool {
	if mw.m.Net(name) == nil {
		return false
	}
	_, _, bit := netlist.BusBase(name)
	return !bit
}

// busIndex returns the index of the qualified bus with that base, or -1.
func (mw *moduleWriter) busIndex(base string) int {
	i, ok := slices.BinarySearchFunc(mw.buses, base, func(b bus, s string) int { return strings.Compare(b.base, s) })
	if !ok {
		return -1
	}
	return i
}

// placePorts gives every port its header base and marks the nets named
// like ports and the buses the header declares.
func (mw *moduleWriter) placePorts() {
	m := mw.m
	mw.ports = make([]portForm, len(m.Ports))
	order := make([]int, len(m.Ports))
	for i, p := range m.Ports {
		f := portForm{base: p.Name, bus: -1}
		if b, _, ok := netlist.BusBase(p.Name); ok {
			if bi := mw.busIndex(b); bi >= 0 {
				f.base, f.bus = b, bi
			}
		}
		if f.bus < 0 {
			f.bus = mw.busIndex(f.base)
		}
		if f.bus >= 0 {
			mw.buses[f.bus].header = true
		}
		if n := m.Net(p.Name); n != nil {
			mw.nets[n.ID()].port = true
		}
		mw.ports[i] = f
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(mw.ports[a].base, mw.ports[b].base) })
	for k, i := range order {
		mw.ports[i].first = k == 0 || mw.ports[i].base != mw.ports[order[k-1]].base
	}
}

// renderWires writes one wire line per net the header does not declare
// (a bus once, under its base) into one string and sorts the lines. A
// bus whose base is also the name of a scalar wire is left to the
// scalar's line.
func (mw *moduleWriter) renderWires() {
	size, count := 0, 0
	for _, n := range mw.m.Nets {
		if f := mw.nets[n.ID()]; !f.busBit && !f.port {
			size += len("  wire ;\n") + identLen(n.Name)
			count++
		}
	}
	for i := range mw.buses {
		b := &mw.buses[i]
		if b.header {
			continue
		}
		if n := mw.m.Net(b.base); n != nil && !mw.nets[n.ID()].busBit && !mw.nets[n.ID()].port {
			continue
		}
		b.wire = true
		size += len("  wire [:] ;\n") + intLen(b.max) + intLen(b.min) + identLen(b.base)
		count++
	}
	var wb strings.Builder
	wb.Grow(size)
	mw.lines = make([]span, 0, count)
	for _, n := range mw.m.Nets {
		if f := mw.nets[n.ID()]; !f.busBit && !f.port {
			start := wb.Len()
			wb.WriteString("  wire ")
			writeIdent(&wb, n.Name)
			wb.WriteString(";\n")
			mw.lines = append(mw.lines, span{int32(start), int32(wb.Len())})
		}
	}
	for _, b := range mw.buses {
		if b.wire {
			start := wb.Len()
			wb.WriteString("  wire [")
			writeInt(&wb, b.max)
			wb.WriteByte(':')
			writeInt(&wb, b.min)
			wb.WriteString("] ")
			writeIdent(&wb, b.base)
			wb.WriteString(";\n")
			mw.lines = append(mw.lines, span{int32(start), int32(wb.Len())})
		}
	}
	mw.wires = wb.String()
	slices.SortFunc(mw.lines, func(a, b span) int { return strings.Compare(mw.wires[a.lo:a.hi], mw.wires[b.lo:b.hi]) })
}

// write renders the module into sb.
func (mw *moduleWriter) write(sb *strings.Builder) {
	m := mw.m
	sb.WriteString("module ")
	writeIdent(sb, m.Name)
	sb.WriteString(" (")
	sep := ""
	for _, f := range mw.ports {
		if f.first {
			sb.WriteString(sep)
			sep = ", "
			writeIdent(sb, f.base)
		}
	}
	sb.WriteString(");\n")
	for i, f := range mw.ports {
		if !f.first {
			continue
		}
		sb.WriteString("  ")
		sb.WriteString(m.Ports[i].Dir.String())
		if f.bus >= 0 {
			b := mw.buses[f.bus]
			sb.WriteString(" [")
			writeInt(sb, b.max)
			sb.WriteByte(':')
			writeInt(sb, b.min)
			sb.WriteByte(']')
		}
		sb.WriteByte(' ')
		writeIdent(sb, f.base)
		sb.WriteString(";\n")
	}
	for _, l := range mw.lines {
		sb.WriteString(mw.wires[l.lo:l.hi])
	}

	// Ports whose net carries a different name (assign aliases) need the
	// alias restated so a re-import reproduces the binding.
	for _, p := range m.Ports {
		if !aliased(p) {
			continue
		}
		sb.WriteString("  assign ")
		if p.Dir == netlist.Out {
			writeIdent(sb, p.Name)
			sb.WriteString(" = ")
			mw.writeRef(sb, p.Net)
		} else {
			mw.writeRef(sb, p.Net)
			sb.WriteString(" = ")
			writeIdent(sb, p.Name)
		}
		sb.WriteString(";\n")
	}

	// Instances, in creation order (stable, meaningful for diffs).
	for _, in := range m.Insts {
		mw.writeInst(sb, in)
	}
	sb.WriteString("endmodule\n\n")
}

// aliased reports whether a port needs an assign: an input or output
// bound to a net of another name.
func aliased(p *netlist.Port) bool {
	return p.Net != nil && p.Net.Name != p.Name && (p.Dir == netlist.In || p.Dir == netlist.Out)
}

// instLen is the length of the instance's line; writeInst writes it.
func (mw *moduleWriter) instLen(in *netlist.Inst) int {
	n := len("    ();\n") + identLen(in.CellName()) + identLen(in.Name)
	sep := 0
	if in.Cell != nil {
		for _, p := range in.Cell.Pins {
			if net := in.Conn(p.Name); net != nil {
				n += sep + len(".()") + identLen(p.Name) + mw.refLen(net)
				sep = len(", ")
			}
		}
		return n
	}
	for _, g := range mw.w.shape(in.Sub) {
		if g.scalar && in.Conn(g.pins[0]) == nil {
			continue
		}
		n += sep + len(".()") + identLen(g.base)
		sep = len(", ")
		if len(g.pins) > 1 {
			n += len("{}") + len(", ")*(len(g.pins)-1)
		}
		for _, pin := range g.pins {
			n += mw.refLen(in.Conn(pin))
		}
	}
	return n
}

func (mw *moduleWriter) writeInst(sb *strings.Builder, in *netlist.Inst) {
	sb.WriteString("  ")
	writeIdent(sb, in.CellName())
	sb.WriteByte(' ')
	writeIdent(sb, in.Name)
	sb.WriteString(" (")
	sep := ""
	if in.Cell != nil {
		for _, p := range in.Cell.Pins {
			if net := in.Conn(p.Name); net != nil {
				sb.WriteString(sep)
				sep = ", "
				sb.WriteByte('.')
				writeIdent(sb, p.Name)
				sb.WriteByte('(')
				mw.writeRef(sb, net)
				sb.WriteByte(')')
			}
		}
		sb.WriteString(");\n")
		return
	}
	// Submodule bus-bit ports are grouped back into one connection with a
	// concatenation, MSB-first following the submodule's port order.
	for _, g := range mw.w.shape(in.Sub) {
		if g.scalar && in.Conn(g.pins[0]) == nil {
			continue
		}
		sb.WriteString(sep)
		sep = ", "
		sb.WriteByte('.')
		writeIdent(sb, g.base)
		sb.WriteByte('(')
		if len(g.pins) == 1 {
			mw.writeRef(sb, in.Conn(g.pins[0]))
		} else {
			sb.WriteByte('{')
			for j, pin := range g.pins {
				if j > 0 {
					sb.WriteString(", ")
				}
				mw.writeRef(sb, in.Conn(pin))
			}
			sb.WriteByte('}')
		}
		sb.WriteByte(')')
	}
	sb.WriteString(");\n")
}

// shape returns the connection grouping of a submodule's ports, built
// once per submodule.
func (w *writer) shape(sub *netlist.Module) []portGroup {
	if groups, ok := w.shapes[sub]; ok {
		return groups
	}
	var groups []portGroup
	at := map[string]int{}
	for _, p := range sub.Ports {
		base := p.Name
		if b, _, ok := netlist.BusBase(p.Name); ok {
			base = b
		}
		i, ok := at[base]
		if !ok {
			i = len(groups)
			at[base] = i
			groups = append(groups, portGroup{base: base})
		}
		groups[i].pins = append(groups[i].pins, p.Name)
	}
	for i := range groups {
		g := &groups[i]
		g.scalar = len(g.pins) == 1 && g.pins[0] == g.base
	}
	w.shapes[sub] = groups
	return groups
}

// form returns how net n is written. A net the module does not own (a
// connection set past the netlist's bookkeeping can reach one) is written
// the way the module writes its own net of that name, if it has one.
func (mw *moduleWriter) form(n *netlist.Net) netForm {
	if id := n.ID(); int(id) < len(mw.nets) && mw.m.NetByID(id) == n {
		return mw.nets[id]
	}
	var f netForm
	if own := mw.m.Net(n.Name); own != nil {
		f.busBit = mw.nets[own.ID()].busBit
	}
	f.len = int32(refLen(n.Name, f.busBit))
	return f
}

// refLen is the length of a net reference; nil nets (unconnected
// submodule bus slices) are written 1'b0.
func (mw *moduleWriter) refLen(n *netlist.Net) int {
	if n == nil {
		return len("1'b0")
	}
	return int(mw.form(n).len)
}

// writeRef writes a net reference: bus bits as base[idx], other names
// escaped when necessary, and nil nets, which should not occur in checked
// designs, as 1'b0.
func (mw *moduleWriter) writeRef(sb *strings.Builder, n *netlist.Net) {
	if n == nil {
		sb.WriteString("1'b0")
		return
	}
	if !mw.form(n).busBit {
		writeIdent(sb, n.Name)
		return
	}
	base, idx, _ := netlist.BusBase(n.Name)
	writeIdent(sb, base)
	sb.WriteByte('[')
	writeInt(sb, idx)
	sb.WriteByte(']')
}

// refLen is the written length of a reference to a net of that name.
func refLen(name string, busBit bool) int {
	if !busBit {
		return identLen(name)
	}
	base, idx, _ := netlist.BusBase(name)
	return identLen(base) + len("[]") + intLen(idx)
}

func writeInt(sb *strings.Builder, v int) {
	var digits [20]byte
	sb.Write(strconv.AppendInt(digits[:0], int64(v), 10))
}

// intLen is the length of v in decimal.
func intLen(v int) int {
	n := 1
	if v < 0 {
		n++
	}
	for ; v <= -10 || v >= 10; v /= 10 {
		n++
	}
	return n
}

// writeIdent writes a name as a simple or escaped identifier.
func writeIdent(sb *strings.Builder, name string) {
	if simpleIdent(name) {
		sb.WriteString(name)
		return
	}
	sb.WriteByte('\\')
	sb.WriteString(name)
	sb.WriteByte(' ')
}

// identLen is the written length of a name.
func identLen(name string) int {
	if simpleIdent(name) {
		return len(name)
	}
	return len(name) + len("\\ ")
}

// simpleIdent reports whether a name can be written as a simple
// identifier: a letter or underscore, then letters, digits, underscores
// and dollar signs, and not a reserved word. Every other name, the empty
// one included, is written escaped: a backslash, the name and a space.
func simpleIdent(name string) bool {
	if name == "" {
		return false
	}
	if c := name[0]; !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return !reserved(name)
}

// reserved reports whether name is a keyword of IEEE 1364-2005 (Annex B).
// Every keyword starts with a lower-case letter.
func reserved(name string) bool {
	if c := name[0]; c < 'a' || c > 'z' {
		return false
	}
	switch name {
	case "always", "and", "assign", "automatic", "begin", "buf", "bufif0", "bufif1",
		"case", "casex", "casez", "cell", "cmos", "config", "deassign", "default",
		"defparam", "design", "disable", "edge", "else", "end", "endcase", "endconfig",
		"endfunction", "endgenerate", "endmodule", "endprimitive", "endspecify",
		"endtable", "endtask", "event", "for", "force", "forever", "fork", "function",
		"generate", "genvar", "highz0", "highz1", "if", "ifnone", "incdir", "include",
		"initial", "inout", "input", "instance", "integer", "join", "large", "liblist",
		"library", "localparam", "macromodule", "medium", "module", "nand", "negedge",
		"nmos", "nor", "noshowcancelled", "not", "notif0", "notif1", "or", "output",
		"parameter", "pmos", "posedge", "primitive", "pull0", "pull1", "pulldown",
		"pullup", "pulsestyle_ondetect", "pulsestyle_onevent", "rcmos", "real",
		"realtime", "reg", "release", "repeat", "rnmos", "rpmos", "rtran", "rtranif0",
		"rtranif1", "scalared", "showcancelled", "signed", "small", "specify",
		"specparam", "strong0", "strong1", "supply0", "supply1", "table", "task",
		"time", "tran", "tranif0", "tranif1", "tri", "tri0", "tri1", "triand", "trior",
		"trireg", "unsigned", "use", "uwire", "vectored", "wait", "wand", "weak0",
		"weak1", "while", "wire", "wor", "xnor", "xor":
		return true
	}
	return false
}
