package verilog

import (
	"fmt"
	"strconv"

	"desync/internal/netlist"
)

// Names of the internal constant nets created for 1'b0/1'b1 connections.
const (
	tie0Net = "__tie0"
	tie1Net = "__tie1"
)

// Read parses gate-level Verilog and links it against the library, returning
// a design rooted at the named top module (auto-detected when top is "": the
// single module never instantiated by another). Buses are bit-blasted,
// assigns are replaced by net aliases (§3.2.1), and constants are driven by
// tie cells.
func Read(src string, lib *netlist.Library, top string) (*netlist.Design, error) {
	mods, err := parseSource(src)
	if err != nil {
		return nil, err
	}
	byName := map[string]*srcModule{}
	instantiated := map[string]bool{}
	for _, m := range mods {
		if byName[m.name] != nil {
			return nil, fmt.Errorf("verilog: duplicate module %s", m.name)
		}
		byName[m.name] = m
	}
	for _, m := range mods {
		for _, in := range m.insts {
			if byName[in.cell] != nil {
				instantiated[in.cell] = true
			}
		}
	}
	if top == "" {
		for _, m := range mods {
			if !instantiated[m.name] {
				if top != "" {
					return nil, fmt.Errorf("verilog: multiple top candidates (%s, %s); specify one", top, m.name)
				}
				top = m.name
			}
		}
		if top == "" {
			return nil, fmt.Errorf("verilog: no top-level module found")
		}
	}
	if byName[top] == nil {
		return nil, fmt.Errorf("verilog: top module %s not in source", top)
	}

	lk := &linker{lib: lib, src: byName, built: map[string]*netlist.Module{}, building: map[string]bool{}}
	topMod, err := lk.module(top)
	if err != nil {
		return nil, err
	}
	d := &netlist.Design{Name: top, Top: topMod, Modules: lk.built, Lib: lib}
	return d, nil
}

type linker struct {
	lib      *netlist.Library
	src      map[string]*srcModule
	built    map[string]*netlist.Module
	building map[string]bool
	// pinShapes caches pinBits per cell/module name: port shapes are fixed,
	// and rebuilding the map for each of a million instances dominated the
	// link step's allocation.
	pinShapes map[string]pinShape
}

// pinShape is the flattened pin list of a cell or module: single-bit pin
// names in declaration order, and the same bits grouped by declared base
// name. Cached entries are shared and must not be mutated.
type pinShape struct {
	order  []string
	byBase map[string][]string
}

func (lk *linker) module(name string) (*netlist.Module, error) {
	if m := lk.built[name]; m != nil {
		return m, nil
	}
	if lk.building[name] {
		return nil, fmt.Errorf("verilog: recursive module instantiation of %s", name)
	}
	lk.building[name] = true
	defer delete(lk.building, name)

	sm := lk.src[name]
	b := &modBuilder{lk: lk, sm: sm, m: netlist.NewModule(name), alias: map[string]string{}, ncCount: 0}
	if err := b.build(); err != nil {
		return nil, err
	}
	lk.built[name] = b.m
	return b.m, nil
}

type modBuilder struct {
	lk      *linker
	sm      *srcModule
	m       *netlist.Module
	alias   map[string]string // union-find parent; roots absent
	ncCount int
	tie     [2]*netlist.Net
}

func (b *modBuilder) find(name string) string {
	root := name
	for {
		p, ok := b.alias[root]
		if !ok {
			break
		}
		root = p
	}
	// Path compression.
	for name != root {
		next := b.alias[name]
		b.alias[name] = root
		name = next
	}
	return root
}

// union makes rhs the canonical name of lhs (rhs drives lhs in an assign).
func (b *modBuilder) union(lhs, rhs string) {
	rl, rr := b.find(lhs), b.find(rhs)
	if rl != rr {
		b.alias[rl] = rr
	}
}

func (b *modBuilder) build() error {
	sm := b.sm
	// 1. Resolve assign aliases (constants alias to the tie nets).
	for _, a := range sm.assigns {
		for i := range a.lhs {
			l, r := a.lhs[i], a.rhs[i]
			if l.name == "" {
				return fmt.Errorf("verilog: %s: line %d: assign to non-net", sm.name, a.line)
			}
			switch {
			case r.cval == 0:
				b.union(l.name, tie0Net)
			case r.cval == 1:
				b.union(l.name, tie1Net)
			default:
				b.union(l.name, r.name)
			}
		}
	}
	// 2. Ports, bit-blasted in header order.
	for _, base := range sm.portOrder {
		dir, ok := sm.dirs[base]
		if !ok {
			return fmt.Errorf("verilog: %s: port %s has no direction declaration", sm.name, base)
		}
		var bitNames []string
		if r, isBus := sm.ranges[base]; isBus {
			for _, bit := range r.bits() {
				bitNames = append(bitNames, netlist.BusBit(base, bit))
			}
		} else {
			bitNames = []string{base}
		}
		for _, pn := range bitNames {
			net := b.m.EnsureNet(b.find(pn))
			if _, err := b.m.AddPortOnNet(pn, dir, net); err != nil {
				return fmt.Errorf("verilog: %s: %v", sm.name, err)
			}
		}
	}
	// 3. Instances.
	for _, si := range sm.insts {
		if err := b.instance(si); err != nil {
			return err
		}
	}
	// 4. Constant nets still undriven after linking get tie-cell drivers.
	// This runs after all instances so a netlist that spells out its own
	// tie cells (e.g. a re-imported export) keeps them as the drivers.
	for v, name := range [2]string{tie0Net, tie1Net} {
		n := b.m.Net(name)
		if n == nil || n.HasDriver() {
			continue
		}
		cell, ok := b.lk.lib.Cells[[2]string{"TIE0", "TIE1"}[v]]
		if !ok {
			continue
		}
		instName := "__" + cell.Name
		for b.m.Inst(instName) != nil {
			instName += "_"
		}
		in := b.m.AddInst(instName, cell)
		if err := b.m.Connect(in, "Z", n); err != nil {
			return fmt.Errorf("verilog: %s: %v", sm.name, err)
		}
	}
	return nil
}

// pinBits returns the single-bit pin names of a cell or submodule in
// positional order, and a lookup from base name to its expanded bit pins.
func (b *modBuilder) pinBits(si srcInst) (order []string, byBase map[string][]string, err error) {
	if sh, ok := b.lk.pinShapes[si.cell]; ok {
		return sh.order, sh.byBase, nil
	}
	byBase = map[string][]string{}
	if cell, ok := b.lk.lib.Cells[si.cell]; ok {
		for _, p := range cell.Pins {
			order = append(order, p.Name)
			byBase[p.Name] = []string{p.Name}
		}
	} else {
		ssm, ok := b.lk.src[si.cell]
		if !ok {
			return nil, nil, fmt.Errorf("verilog: %s: line %d: unknown cell or module %q", b.sm.name, si.line, si.cell)
		}
		for _, base := range ssm.portOrder {
			var bits []string
			if r, isBus := ssm.ranges[base]; isBus {
				for _, bit := range r.bits() {
					bits = append(bits, netlist.BusBit(base, bit))
				}
			} else {
				bits = []string{base}
			}
			order = append(order, bits...)
			byBase[base] = bits
		}
	}
	if b.lk.pinShapes == nil {
		b.lk.pinShapes = map[string]pinShape{}
	}
	b.lk.pinShapes[si.cell] = pinShape{order: order, byBase: byBase}
	return order, byBase, nil
}

func (b *modBuilder) instance(si srcInst) error {
	order, byBase, err := b.pinBits(si)
	if err != nil {
		return err
	}
	if b.m.Inst(si.name) != nil {
		return fmt.Errorf("verilog: %s: line %d: duplicate instance %q", b.sm.name, si.line, si.name)
	}
	var inst *netlist.Inst
	if cell, ok := b.lk.lib.Cells[si.cell]; ok {
		inst = b.m.AddInst(si.name, cell)
	} else {
		sub, err := b.lk.module(si.cell)
		if err != nil {
			return err
		}
		inst = b.m.AddSubInst(si.name, sub)
	}

	connect := func(pin string, ref srcRef) error {
		var net *netlist.Net
		switch {
		case ref.open:
			b.ncCount++
			net = b.m.EnsureNet("__nc" + strconv.Itoa(b.ncCount))
		case ref.cval == 0:
			net = b.tieNet(0)
		case ref.cval == 1:
			net = b.tieNet(1)
		default:
			switch canon := b.find(ref.name); canon {
			case tie0Net:
				net = b.tieNet(0)
			case tie1Net:
				net = b.tieNet(1)
			default:
				net = b.m.EnsureNet(canon)
			}
		}
		if err := b.m.Connect(inst, pin, net); err != nil {
			return fmt.Errorf("verilog: %s: line %d: %v", b.sm.name, si.line, err)
		}
		return nil
	}

	if si.positional {
		var flat []srcRef
		for _, c := range si.conns {
			flat = append(flat, c.refs...)
		}
		if len(flat) != len(order) {
			return fmt.Errorf("verilog: %s: line %d: instance %s has %d positional connections, cell %s has %d pins",
				b.sm.name, si.line, si.name, len(flat), si.cell, len(order))
		}
		for i, ref := range flat {
			if err := connect(order[i], ref); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range si.conns {
		pins, ok := byBase[c.pin]
		if !ok {
			return fmt.Errorf("verilog: %s: line %d: instance %s: no pin %q on %s",
				b.sm.name, si.line, si.name, c.pin, si.cell)
		}
		if len(c.refs) != len(pins) {
			return fmt.Errorf("verilog: %s: line %d: instance %s pin %s: width %d vs %d",
				b.sm.name, si.line, si.name, c.pin, len(c.refs), len(pins))
		}
		for i, ref := range c.refs {
			if err := connect(pins[i], ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// tieNet lazily resolves the constant nets. Drivers are added in build
// step 4, once every source instance has had its chance to drive them.
func (b *modBuilder) tieNet(v int) *netlist.Net {
	if b.tie[v] == nil {
		b.tie[v] = b.m.EnsureNet([2]string{tie0Net, tie1Net}[v])
	}
	return b.tie[v]
}
