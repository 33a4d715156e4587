package verilog

import (
	"fmt"
	"sort"
	"strings"

	"desync/internal/netlist"
)

// refWrite is the map-keyed writer the dense one replaced, kept as the
// reference the differential tests hold Write to byte for byte. Its only
// change is the identifier rule: it escapes exactly what Write escapes
// (refEscape), so the comparison isolates the rewrite from that fix.
func refWrite(d *netlist.Design) string {
	var sb strings.Builder
	written := map[string]bool{}
	var emit func(m *netlist.Module)
	emit = func(m *netlist.Module) {
		if written[m.Name] {
			return
		}
		written[m.Name] = true
		for _, in := range m.Insts {
			if in.Sub != nil {
				emit(in.Sub)
			}
		}
		refWriteModule(&sb, m)
	}
	emit(d.Top)
	return sb.String()
}

type refBusInfo struct {
	base     string
	min, max int
}

func refAnalyzeBuses(names []string, scalarTaken map[string]bool) (buses map[string]*refBusInfo, busNames map[string]bool) {
	buses = map[string]*refBusInfo{}
	seen := map[string]map[int]bool{}
	disqualified := map[string]bool{}
	for _, n := range names {
		base, idx, ok := netlist.BusBase(n)
		if !ok {
			continue
		}
		if scalarTaken[base] {
			disqualified[base] = true
			continue
		}
		if seen[base] == nil {
			seen[base] = map[int]bool{}
			buses[base] = &refBusInfo{base: base, min: idx, max: idx}
		}
		if seen[base][idx] {
			disqualified[base] = true
			continue
		}
		seen[base][idx] = true
		if idx < buses[base].min {
			buses[base].min = idx
		}
		if idx > buses[base].max {
			buses[base].max = idx
		}
	}
	for b := range disqualified {
		delete(buses, b)
	}
	busNames = map[string]bool{}
	for _, n := range names {
		if base, _, ok := netlist.BusBase(n); ok && buses[base] != nil {
			busNames[n] = true
		}
	}
	return buses, busNames
}

func refWriteModule(sb *strings.Builder, m *netlist.Module) {
	scalarTaken := map[string]bool{}
	var allNames []string
	for _, n := range m.Nets {
		allNames = append(allNames, n.Name)
		if _, _, ok := netlist.BusBase(n.Name); !ok {
			scalarTaken[n.Name] = true
		}
	}
	buses, isBusBit := refAnalyzeBuses(allNames, scalarTaken)

	fmt.Fprintf(sb, "module %s (", refEscape(m.Name))
	var headerDone = map[string]bool{}
	first := true
	portDirs := map[string]netlist.PinDir{}
	var portBases []string
	for _, p := range m.Ports {
		base := p.Name
		if b, _, ok := netlist.BusBase(p.Name); ok && buses[b] != nil {
			base = b
		}
		if !headerDone[base] {
			headerDone[base] = true
			portBases = append(portBases, base)
			portDirs[base] = p.Dir
			if !first {
				sb.WriteString(", ")
			}
			first = false
			sb.WriteString(refEscape(base))
		}
	}
	sb.WriteString(");\n")

	portNets := map[string]bool{}
	for _, p := range m.Ports {
		portNets[p.Name] = true
	}
	for _, base := range portBases {
		if b := buses[base]; b != nil && !scalarTaken[base] {
			fmt.Fprintf(sb, "  %s [%d:%d] %s;\n", portDirs[base], b.max, b.min, refEscape(base))
		} else {
			fmt.Fprintf(sb, "  %s %s;\n", portDirs[base], refEscape(base))
		}
	}

	declared := map[string]bool{}
	var wireLines []string
	for _, n := range m.SortedNets() {
		if portNets[n.Name] {
			continue
		}
		if base, _, ok := netlist.BusBase(n.Name); ok && buses[base] != nil {
			if headerDone[base] || declared[base] {
				continue
			}
			declared[base] = true
			b := buses[base]
			wireLines = append(wireLines, fmt.Sprintf("  wire [%d:%d] %s;\n", b.max, b.min, refEscape(base)))
			continue
		}
		if declared[n.Name] {
			continue
		}
		declared[n.Name] = true
		wireLines = append(wireLines, fmt.Sprintf("  wire %s;\n", refEscape(n.Name)))
	}
	sort.Strings(wireLines)
	for _, l := range wireLines {
		sb.WriteString(l)
	}

	for _, p := range m.Ports {
		if p.Net == nil || p.Net.Name == p.Name {
			continue
		}
		switch p.Dir {
		case netlist.Out:
			fmt.Fprintf(sb, "  assign %s = %s;\n", refEscape(p.Name), refNetRef(p.Net, isBusBit))
		case netlist.In:
			fmt.Fprintf(sb, "  assign %s = %s;\n", refNetRef(p.Net, isBusBit), refEscape(p.Name))
		}
	}

	for _, in := range m.Insts {
		refWriteInst(sb, in, isBusBit)
	}
	sb.WriteString("endmodule\n\n")
}

func refWriteInst(sb *strings.Builder, in *netlist.Inst, isBusBit map[string]bool) {
	fmt.Fprintf(sb, "  %s %s (", refEscape(in.CellName()), refEscape(in.Name))

	type pinConn struct {
		pin  string
		nets []*netlist.Net
	}
	var conns []pinConn
	if in.Cell != nil {
		for _, p := range in.Cell.Pins {
			if n := in.Conn(p.Name); n != nil {
				conns = append(conns, pinConn{p.Name, []*netlist.Net{n}})
			}
		}
	} else {
		type group struct {
			pins []string
			nets []*netlist.Net
		}
		var order []string
		groups := map[string]*group{}
		for _, p := range in.Sub.Ports {
			base := p.Name
			if b, _, ok := netlist.BusBase(p.Name); ok {
				base = b
			}
			g := groups[base]
			if g == nil {
				g = &group{}
				groups[base] = g
				order = append(order, base)
			}
			g.pins = append(g.pins, p.Name)
			g.nets = append(g.nets, in.Conn(p.Name))
		}
		for _, base := range order {
			g := groups[base]
			if len(g.pins) == 1 && g.pins[0] == base {
				if g.nets[0] != nil {
					conns = append(conns, pinConn{base, g.nets})
				}
				continue
			}
			conns = append(conns, pinConn{base, g.nets})
		}
	}

	for i, c := range conns {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, ".%s(", refEscape(c.pin))
		if len(c.nets) == 1 {
			sb.WriteString(refNetRef(c.nets[0], isBusBit))
		} else {
			sb.WriteString("{")
			for j, n := range c.nets {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(refNetRef(n, isBusBit))
			}
			sb.WriteString("}")
		}
		sb.WriteString(")")
	}
	sb.WriteString(");\n")
}

func refNetRef(n *netlist.Net, isBusBit map[string]bool) string {
	if n == nil {
		return "1'b0"
	}
	if isBusBit[n.Name] {
		base, idx, _ := netlist.BusBase(n.Name)
		return fmt.Sprintf("%s[%d]", refEscape(base), idx)
	}
	return refEscape(n.Name)
}

// refEscape is the old writer's escape with Write's identifier rule.
func refEscape(name string) string {
	if simpleIdent(name) {
		return name
	}
	return "\\" + name + " "
}
