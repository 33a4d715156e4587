package netlist

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// PinRef identifies one endpoint of a net: a pin of an instance, or (when
// Inst is nil) a port of the enclosing module.
type PinRef struct {
	Inst *Inst  // nil for module ports
	Pin  string // instance pin name or module port name
}

// String renders inst/pin or the bare port name.
func (r PinRef) String() string {
	if r.Inst == nil {
		return r.Pin
	}
	return r.Inst.Name + "/" + r.Pin
}

// Net is a single-bit wire. A net has at most one driver (instance output or
// module input port) and any number of sinks. Records are slab-allocated by
// their module; create nets with AddNet/EnsureNet, never by hand.
type Net struct {
	Name      string
	Driver    PinRef   // zero value (Inst==nil, Pin=="") means undriven
	Sinks     []PinRef // instance inputs and module output ports
	FalsePath bool     // marked via drdesync's command line to be ignored by grouping (§3.2.2)

	// Wire is the interconnect delay annotated by placement & routing;
	// zero before layout. Applied to every driver→sink hop of the net.
	Wire Delay

	id   NetID
	dead bool
}

// HasDriver reports whether the net has a driver.
func (n *Net) HasDriver() bool { return n.Driver.Inst != nil || n.Driver.Pin != "" }

// BusBase splits a bit-blasted bus net name "data[3]" into ("data", 3, true).
// Names without a [index] suffix return ok=false. The grouping bus heuristic
// (§3.2.2) relies on this: it only works when the synthesis tool has kept
// bus[n] naming rather than collapsing to bus_n.
func BusBase(name string) (base string, index int, ok bool) {
	if !strings.HasSuffix(name, "]") {
		return "", 0, false
	}
	i := strings.LastIndexByte(name, '[')
	if i < 0 {
		return "", 0, false
	}
	idx := 0
	digits := name[i+1 : len(name)-1]
	if digits == "" {
		return "", 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return "", 0, false
		}
		idx = idx*10 + int(c-'0')
	}
	return name[:i], idx, true
}

// BusBit returns the bit-blasted name of bit index of a bus: "base[index]",
// the form BusBase splits.
func BusBit(base string, index int) string { return base + "[" + strconv.Itoa(index) + "]" }

// Inst is an instance of a library cell or of a submodule (exactly one of
// Cell and Sub is non-nil). Connections are stored as an ordered list carved
// from the module's connection arena; read them with Conn/Conns. Records are
// slab-allocated by their module; create instances with AddInst/AddSubInst.
type Inst struct {
	Name string
	Cell *CellDef
	Sub  *Module

	// Group is the desynchronization region this instance belongs to;
	// -1 before grouping. Group 0 is the paper's catch-all region for
	// sequential elements registering circuit inputs.
	Group int

	// SizeOnly marks controller-internal gates that backend optimization may
	// resize but not restructure (§4.6.2).
	SizeOnly bool

	// Origin records which flow step created the instance ("" for cells
	// present in the imported netlist): "ffsub" for flip-flop substitution
	// products, "ctrl" for controller-network cells, "delem" for delay
	// elements, "cts" for enable-tree buffers, "scan" for DFT. The area
	// tables of §5 attribute "ffsub" gates to sequential logic, matching the
	// paper's accounting for the ARM scan design.
	Origin string

	// DelayFactor is this instance's intra-die variability multiplier applied
	// to all its timing arcs during simulation; 1.0 nominal.
	DelayFactor float64

	conns []PinConn
	id    InstID
	dead  bool
}

// CellName returns the library cell or submodule name.
func (in *Inst) CellName() string {
	if in.Cell != nil {
		return in.Cell.Name
	}
	return in.Sub.Name
}

// Port is a module-level port bound to an internal net of the same name.
type Port struct {
	Name string
	Dir  PinDir
	Net  *Net
}

// Module is a netlist: ports, nets and instances. Designs straight out of
// synthesis are flat modules of library cells; the Verilog reader may also
// build two-level hierarchies which Flatten collapses.
//
// Nets and Insts are the dense, insertion-ordered record views; they are
// maintained by the mutators and must be treated as read-only by consumers.
// Underneath, records live in slab chunks, carry dense NetID/InstID handles,
// and are found by name through one pointer-free nameIndex per record kind.
type Module struct {
	Name  string
	Ports []*Port
	Nets  []*Net
	Insts []*Inst

	netNames  nameIndex
	instNames nameIndex
	netsByID  []*Net  // dense by NetID; nil after removal
	instsByID []*Inst // dense by InstID; nil after removal

	netRecs  slab[Net]
	instRecs slab[Inst]
	arena    connArena

	bulkDepth int
	deadNets  int
	deadInsts int

	valid   validState
	scratch scratchState
	sorted  sortedCache
	epoch   uint32 // validator mark epoch

	// modseq counts structural mutations (nets, ports, instances,
	// connectivity). Derivation caches keyed on the module compare it to
	// decide whether a cached analysis is still valid.
	modseq uint64
}

// ModSeq returns the module's structural mutation counter. Two calls
// returning the same value bracket a window with no structural change, so an
// analysis derived inside it is still valid.
func (m *Module) ModSeq() uint64 { return m.modseq }

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name}
}

// findNet probes the net index for name: the net's ID, or NoNet and the
// slot and hash an insert of name claims.
func (m *Module) findNet(name string) (NetID, int, uint32) {
	id, pos, h := m.netNames.find(name, func(id int32) bool {
		n := m.netsByID[id]
		return n != nil && n.Name == name
	})
	return NetID(id), pos, h
}

// findInst is the instance counterpart of findNet.
func (m *Module) findInst(name string) (InstID, int, uint32) {
	id, pos, h := m.instNames.find(name, func(id int32) bool {
		in := m.instsByID[id]
		return in != nil && in.Name == name
	})
	return InstID(id), pos, h
}

// AddNet creates a new named net. It is an error (panic) to reuse a name.
func (m *Module) AddNet(name string) *Net {
	id, pos, h := m.findNet(name)
	if id != NoNet {
		panic(fmt.Sprintf("netlist: duplicate net %q in module %s", name, m.Name))
	}
	return m.addNet(name, pos, h)
}

// addNet creates the net after findNet missed name at slot pos.
func (m *Module) addNet(name string, pos int, h uint32) *Net {
	m.modseq++
	n := m.netRecs.alloc()
	n.Name = name
	n.id = NetID(len(m.netsByID))
	m.netsByID = append(m.netsByID, n)
	m.Nets = append(m.Nets, n)
	m.netNames.insert(name, int32(n.id), pos, h)
	return n
}

// Net returns the named net or nil.
func (m *Module) Net(name string) *Net {
	id, _, _ := m.findNet(name)
	if id == NoNet {
		return nil
	}
	return m.netsByID[id]
}

// EnsureNet returns the named net, creating it if needed.
func (m *Module) EnsureNet(name string) *Net {
	id, pos, h := m.findNet(name)
	if id != NoNet {
		return m.netsByID[id]
	}
	return m.addNet(name, pos, h)
}

// AddPort declares a module port and binds it to a same-named net (creating
// the net if necessary). Input ports drive their net; output ports sink it.
func (m *Module) AddPort(name string, dir PinDir) *Port {
	n := m.EnsureNet(name)
	m.modseq++
	p := &Port{Name: name, Dir: dir, Net: n}
	m.Ports = append(m.Ports, p)
	switch dir {
	case In:
		n.Driver = PinRef{Pin: name}
	case Out:
		n.Sinks = append(n.Sinks, PinRef{Pin: name})
	}
	return p
}

// AddPortOnNet declares a port bound to an existing net whose name may
// differ from the port's (used by the Verilog reader when assign aliases
// merge a port with another net).
func (m *Module) AddPortOnNet(name string, dir PinDir, n *Net) (*Port, error) {
	if dir == In && n.HasDriver() {
		return nil, fmt.Errorf("netlist: input port %s on already-driven net %s", name, n.Name)
	}
	m.modseq++
	p := &Port{Name: name, Dir: dir, Net: n}
	m.Ports = append(m.Ports, p)
	switch dir {
	case In:
		n.Driver = PinRef{Pin: name}
	case Out:
		n.Sinks = append(n.Sinks, PinRef{Pin: name})
	}
	return p, nil
}

// Port returns the named port or nil.
func (m *Module) Port(name string) *Port {
	for _, p := range m.Ports {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// AddInst creates an instance of a library cell with no connections.
func (m *Module) AddInst(name string, cell *CellDef) *Inst {
	return m.addInst(name, cell, nil, len(cell.Pins))
}

// AddSubInst creates an instance of a submodule.
func (m *Module) AddSubInst(name string, sub *Module) *Inst {
	return m.addInst(name, nil, sub, len(sub.Ports))
}

func (m *Module) addInst(name string, cell *CellDef, sub *Module, pins int) *Inst {
	id, pos, h := m.findInst(name)
	if id != NoInst {
		panic(fmt.Sprintf("netlist: duplicate instance %q in module %s", name, m.Name))
	}
	m.modseq++
	in := m.instRecs.alloc()
	in.Name = name
	in.Cell = cell
	in.Sub = sub
	in.Group = -1
	in.DelayFactor = 1
	in.conns = m.arena.carve(pins)
	in.id = InstID(len(m.instsByID))
	m.instsByID = append(m.instsByID, in)
	m.Insts = append(m.Insts, in)
	m.instNames.insert(name, int32(in.id), pos, h)
	return in
}

// Inst returns the named instance or nil.
func (m *Module) Inst(name string) *Inst {
	id, _, _ := m.findInst(name)
	if id == NoInst {
		return nil
	}
	return m.instsByID[id]
}

// Connect attaches pin of inst to net, updating the net's driver/sink lists
// according to the pin direction. Connecting an output pin to an
// already-driven net is an error. The stored pin name is interned to the
// cell's (or submodule's) own pin-name string.
func (m *Module) Connect(in *Inst, pin string, net *Net) error {
	cpin, dir, err := m.pinOf(in, pin)
	if err != nil {
		return err
	}
	if old := in.Conn(cpin); old != nil {
		return fmt.Errorf("netlist: %s/%s already connected to %s", in.Name, pin, old.Name)
	}
	m.modseq++
	in.conns = append(in.conns, PinConn{Pin: cpin, Net: net, Dir: dir})
	ref := PinRef{Inst: in, Pin: cpin}
	if dir == Out {
		if net.HasDriver() {
			return fmt.Errorf("netlist: net %s has two drivers: %s and %s", net.Name, net.Driver, ref)
		}
		net.Driver = ref
	} else {
		net.Sinks = append(net.Sinks, ref)
	}
	return nil
}

// MustConnect is Connect that panics on error; for programmatic generators.
func (m *Module) MustConnect(in *Inst, pin string, net *Net) {
	if err := m.Connect(in, pin, net); err != nil {
		panic(err)
	}
}

// Disconnect removes the connection of pin on inst from its net.
func (m *Module) Disconnect(in *Inst, pin string) {
	var net *Net
	ci := -1
	for i := range in.conns {
		if in.conns[i].Pin == pin {
			net, ci = in.conns[i].Net, i
			break
		}
	}
	if net == nil {
		return
	}
	m.modseq++
	in.conns = append(in.conns[:ci], in.conns[ci+1:]...)
	ref := PinRef{Inst: in, Pin: pin}
	if net.Driver == ref {
		net.Driver = PinRef{}
		return
	}
	for i, s := range net.Sinks {
		if s == ref {
			net.Sinks = append(net.Sinks[:i], net.Sinks[i+1:]...)
			return
		}
	}
}

// DisconnectSinks removes every sink of net for which drop returns true, in
// one order-preserving pass, and splices the matching pin off each dropped
// instance. It is the batch counterpart of per-pin Disconnect for
// high-fanout nets: detaching k sinks from an n-sink net costs O(n + k·pins)
// instead of the k·O(n) of repeated Disconnect calls (quadratic on a clock
// net feeding every flip-flop). The driver is never touched.
func (m *Module) DisconnectSinks(net *Net, drop func(PinRef) bool) {
	w := 0
	for _, s := range net.Sinks {
		if s.Inst == nil || !drop(s) {
			net.Sinks[w] = s
			w++
			continue
		}
		in := s.Inst
		for i := range in.conns {
			if in.conns[i].Pin == s.Pin && in.conns[i].Net == net {
				in.conns = append(in.conns[:i], in.conns[i+1:]...)
				break
			}
		}
	}
	if w == len(net.Sinks) {
		return
	}
	m.modseq++
	clear(net.Sinks[w:])
	net.Sinks = net.Sinks[:w]
}

// RemoveInst removes the instance and all its connections. Inside a
// BeginBulk/EndBulk section the Insts array is compacted once at EndBulk;
// outside, the removal splices immediately. An instance the module does not
// hold (another module's, or one already removed) is left alone.
func (m *Module) RemoveInst(in *Inst) {
	if !m.containsInst(in) {
		return
	}
	for len(in.conns) > 0 {
		m.Disconnect(in, in.conns[len(in.conns)-1].Pin)
	}
	m.modseq++
	m.instNames.remove(in.Name, int32(in.id))
	m.instsByID[in.id] = nil
	in.dead = true
	if m.bulkDepth > 0 {
		m.deadInsts++
		return
	}
	for i, x := range m.Insts {
		if x == in {
			m.Insts = append(m.Insts[:i], m.Insts[i+1:]...)
			return
		}
	}
}

// RemoveNet removes an unconnected net. Inside a bulk section the Nets
// array is compacted at EndBulk.
func (m *Module) RemoveNet(n *Net) error {
	if !m.containsNet(n) {
		return m.foreignNet(n)
	}
	if n.HasDriver() || len(n.Sinks) > 0 {
		return fmt.Errorf("netlist: net %s still connected", n.Name)
	}
	m.modseq++
	m.netNames.remove(n.Name, int32(n.id))
	m.netsByID[n.id] = nil
	n.dead = true
	if m.bulkDepth > 0 {
		m.deadNets++
		return nil
	}
	for i, x := range m.Nets {
		if x == n {
			m.Nets = append(m.Nets[:i], m.Nets[i+1:]...)
			break
		}
	}
	return nil
}

// RenameNet changes a net's name, keeping lookups consistent. The new name
// must be free.
func (m *Module) RenameNet(n *Net, name string) error {
	if !m.containsNet(n) {
		return m.foreignNet(n)
	}
	if id, _, _ := m.findNet(name); id != NoNet {
		return fmt.Errorf("netlist: net name %q already in use", name)
	}
	m.modseq++
	m.netNames.remove(n.Name, int32(n.id))
	n.Name = name
	_, pos, h := m.findNet(name)
	m.netNames.insert(name, int32(n.id), pos, h)
	return nil
}

// foreignNet is the error for a net the module does not hold.
func (m *Module) foreignNet(n *Net) error {
	return fmt.Errorf("netlist: net %s is not in module %s", n.Name, m.Name)
}

// ReplaceSinks moves every sink of from onto to (drivers are untouched).
// Used by logic cleaning when a buffer is removed.
func (m *Module) ReplaceSinks(from, to *Net) {
	m.modseq++
	for _, s := range from.Sinks {
		if s.Inst != nil {
			if e := s.Inst.connEntry(s.Pin); e != nil {
				e.Net = to
			}
		} else {
			// Module output port: rebind the port to the surviving net.
			if p := m.Port(s.Pin); p != nil {
				p.Net = to
			}
		}
		to.Sinks = append(to.Sinks, s)
	}
	from.Sinks = nil
}

// pinOf resolves a pin name on the instance's cell or submodule, returning
// the interned (canonical) name string and the direction.
func (m *Module) pinOf(in *Inst, pin string) (string, PinDir, error) {
	if in.Cell != nil {
		pd := in.Cell.Pin(pin)
		if pd == nil {
			return "", In, fmt.Errorf("netlist: cell %s has no pin %q", in.Cell.Name, pin)
		}
		return pd.Name, pd.Dir, nil
	}
	p := in.Sub.Port(pin)
	if p == nil {
		return "", In, fmt.Errorf("netlist: module %s has no port %q", in.Sub.Name, pin)
	}
	return p.Name, p.Dir, nil
}

func (m *Module) pinDir(in *Inst, pin string) (PinDir, error) {
	_, dir, err := m.pinOf(in, pin)
	return dir, err
}

// Check validates structural sanity: every instance pin connected, every net
// with sinks has a driver, no unknown pins. It returns all problems found.
func (m *Module) Check() []error {
	m.compact()
	var errs []error
	for _, in := range m.Insts {
		var pins []PinDef
		if in.Cell != nil {
			pins = in.Cell.Pins
		} else {
			for _, p := range in.Sub.Ports {
				pins = append(pins, PinDef{Name: p.Name, Dir: p.Dir})
			}
		}
		for _, p := range pins {
			if in.Conn(p.Name) == nil {
				errs = append(errs, fmt.Errorf("%s: unconnected pin %s/%s", m.Name, in.Name, p.Name))
			}
		}
	}
	for _, n := range m.Nets {
		if len(n.Sinks) > 0 && !n.HasDriver() {
			errs = append(errs, fmt.Errorf("%s: net %s has sinks but no driver", m.Name, n.Name))
		}
	}
	return errs
}

// Stats summarizes a module for the area tables of §5.
type Stats struct {
	Nets       int
	Cells      int
	CellArea   float64 // total standard-cell area, µm²
	CombArea   float64
	SeqArea    float64
	FFs        int
	Latches    int
	CombGates  int
	OtherCells int
}

// ComputeStats walks the (flat) module and tallies cell counts and areas.
func (m *Module) ComputeStats() Stats {
	m.compact()
	var s Stats
	s.Nets = len(m.Nets)
	for _, in := range m.Insts {
		if in.Cell == nil {
			s.OtherCells++
			continue
		}
		s.Cells++
		s.CellArea += in.Cell.Area
		switch in.Cell.Kind {
		case KindFF:
			s.FFs++
			s.SeqArea += in.Cell.Area
		case KindLatch:
			s.Latches++
			s.SeqArea += in.Cell.Area
		case KindCElem, KindGC:
			s.SeqArea += in.Cell.Area
		default:
			s.CombGates++
			s.CombArea += in.Cell.Area
		}
	}
	return s
}

// SortedNets returns the nets sorted by name (stable output for writers).
func (m *Module) SortedNets() []*Net {
	return append([]*Net(nil), m.sortedNetsCached()...)
}

// sortedNetsCached returns the module-owned name-sorted net order, rebuilt
// only when the module has structurally changed since the last sort.
func (m *Module) sortedNetsCached() []*Net {
	m.refreshSorted()
	return m.sorted.nets
}

// sortedInstsCached is the instance counterpart of sortedNetsCached.
func (m *Module) sortedInstsCached() []*Inst {
	m.refreshSorted()
	return m.sorted.insts
}

func (m *Module) refreshSorted() {
	m.compact()
	if m.sorted.valid && m.sorted.seq == m.modseq {
		return
	}
	m.sorted.nets = append(m.sorted.nets[:0], m.Nets...)
	slices.SortFunc(m.sorted.nets, func(a, b *Net) int { return strings.Compare(a.Name, b.Name) })
	m.sorted.insts = append(m.sorted.insts[:0], m.Insts...)
	slices.SortFunc(m.sorted.insts, func(a, b *Inst) int { return strings.Compare(a.Name, b.Name) })
	m.sorted.seq = m.modseq
	m.sorted.valid = true
}

// Design couples a top module, its (optional) submodules and the library it
// is mapped to.
type Design struct {
	Name    string
	Top     *Module
	Modules map[string]*Module
	Lib     *Library
}

// NewDesign returns a design with a fresh top-level module of the same name.
func NewDesign(name string, lib *Library) *Design {
	top := NewModule(name)
	return &Design{Name: name, Top: top, Modules: map[string]*Module{name: top}, Lib: lib}
}

// Flatten collapses all submodule instances of the top module into library
// cell instances, prefixing inner names with "<inst>/". The paper's tool
// accepts a two-level netlist whose top contains only flattened submodules
// treated as regions (§3.2.2); Flatten records that origin in the Group
// field when assignGroups is true.
func (d *Design) Flatten(assignGroups bool) error {
	group := 1
	for {
		var sub *Inst
		for _, in := range d.Top.Insts {
			if in.Sub != nil {
				sub = in
				break
			}
		}
		if sub == nil {
			return nil
		}
		g := -1
		if assignGroups {
			g = group
			group++
		}
		if err := d.inline(sub, g); err != nil {
			return err
		}
	}
}

// inline expands one submodule instance into the top module.
func (d *Design) inline(in *Inst, group int) error {
	top, sub := d.Top, in.Sub
	prefix := in.Name + "/"
	// Map each submodule net to a top-level net: port nets bind to the
	// connected outer nets; internal nets get fresh prefixed names.
	netMap := map[*Net]*Net{}
	for _, p := range sub.Ports {
		outer := in.Conn(p.Name)
		if outer == nil {
			return fmt.Errorf("netlist: %s/%s unconnected during flatten", in.Name, p.Name)
		}
		netMap[p.Net] = outer
	}
	for _, n := range sub.Nets {
		if _, ok := netMap[n]; !ok {
			netMap[n] = top.EnsureNet(prefix + n.Name)
		}
	}
	// Remove the submodule instance before re-creating its contents so the
	// outer nets' driver slots are free.
	top.RemoveInst(in)
	for _, si := range sub.Insts {
		var ni *Inst
		if si.Cell != nil {
			ni = top.AddInst(prefix+si.Name, si.Cell)
		} else {
			ni = top.AddSubInst(prefix+si.Name, si.Sub)
		}
		ni.Group = group
		ni.SizeOnly = si.SizeOnly
		for _, pc := range si.Conns() {
			if err := top.Connect(ni, pc.Pin, netMap[pc.Net]); err != nil {
				return err
			}
		}
	}
	return nil
}
