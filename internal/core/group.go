package core

import (
	"sort"

	"desync/internal/netlist"
)

// GroupingResult reports what the automatic region creation found.
type GroupingResult struct {
	Groups int // number of regions created, excluding group 0
	// Group0 is the count of sequential elements assigned to the catch-all
	// region of input-registering flip-flops (step 3 of Fig 3.3).
	Group0 int
}

// GroupOptions tunes the grouping algorithm for ablation studies.
type GroupOptions struct {
	// DisableBusRule switches off the by-name bus heuristic of Fig 3.6.
	DisableBusRule bool
}

// AutoGroup runs the grouping algorithm of Fig 3.4 on a flat module,
// assigning every instance's Group field. Regions are connected components
// of combinational logic together with the sequential elements they drive;
// ungrouped sequential elements directly driven by grouped ones join that
// group (the flip-flop-to-flip-flop rule); everything left joins group 0.
// Nets marked FalsePath and clock/enable pins are not traversed. The
// by-name bus heuristic merges components that drive bits of the same
// declared bus (Fig 3.6).
func AutoGroup(m *netlist.Module) GroupingResult {
	return AutoGroupOpt(m, GroupOptions{})
}

// AutoGroupOpt is AutoGroup with explicit options.
func AutoGroupOpt(m *netlist.Module, opts GroupOptions) GroupingResult {
	for _, in := range m.Insts {
		in.Group = -1
	}
	// Bus heuristic: map bus base name -> driver instances of its bits.
	busDrivers := map[string][]*netlist.Inst{}
	for _, n := range m.Nets {
		if n.FalsePath || n.Driver.Inst == nil {
			continue
		}
		if base, _, ok := netlist.BusBase(n.Name); ok {
			busDrivers[base] = append(busDrivers[base], n.Driver.Inst)
		}
	}

	next := 1
	// Step 1: flood from each ungrouped combinational gate.
	for _, seed := range m.Insts {
		if seed.Group != -1 || !isComb(seed) {
			continue
		}
		grp := next
		next++
		queue := []*netlist.Inst{seed}
		seed.Group = grp
		for len(queue) > 0 {
			cell := queue[0]
			queue = queue[1:]
			add := func(in *netlist.Inst) {
				if in != nil && in.Group == -1 {
					in.Group = grp
					queue = append(queue, in)
				}
			}
			// Combinational source cells of every member (including the
			// region's sequential elements, whose data-input cones belong
			// to this cloud).
			for _, pc := range cell.Conns() {
				pin, n := pc.Pin, pc.Net
				pd := cell.Cell.Pin(pin)
				if pd == nil || pd.Dir != netlist.In || n.FalsePath {
					continue
				}
				if pd.Class != netlist.ClassData && pd.Class != netlist.ClassScanIn {
					continue
				}
				if src := n.Driver.Inst; src != nil && isComb(src) {
					add(src)
				}
			}
			if isComb(cell) {
				// Target cells of combinational members (both gates and the
				// flip-flops the cloud drives).
				for _, pc := range cell.Conns() {
					pin, n := pc.Pin, pc.Net
					pd := cell.Cell.Pin(pin)
					if pd == nil || pd.Dir != netlist.Out || n.FalsePath {
						continue
					}
					for _, s := range n.Sinks {
						if s.Inst == nil {
							continue
						}
						// Do not capture a cell through control-class pins:
						// clocks, enables, async set/reset and scan enables
						// fan out globally and would merge all regions.
						if spd := pinDefOf(s); spd != nil && spd.Class != netlist.ClassData {
							continue
						}
						add(s.Inst)
					}
					// Bus rule: other drivers of the same declared bus.
					if base, _, ok := netlist.BusBase(n.Name); ok && !opts.DisableBusRule {
						for _, drv := range busDrivers[base] {
							add(drv)
						}
					}
				}
			}
		}
	}

	// Step 2: ungrouped sequential elements directly driven by grouped
	// sequential elements join the driver's group (signal-history chains).
	for changed := true; changed; {
		changed = false
		for _, in := range m.Insts {
			if in.Group != -1 || in.Cell == nil || in.Cell.Seq == nil {
				continue
			}
			for _, pc := range in.Conns() {
				pin, n := pc.Pin, pc.Net
				pd := in.Cell.Pin(pin)
				if pd == nil || pd.Dir != netlist.In || pd.Class != netlist.ClassData || n.FalsePath {
					continue
				}
				drv := n.Driver.Inst
				if drv != nil && drv.Cell != nil && drv.Cell.Seq != nil && drv.Group > 0 {
					in.Group = drv.Group
					changed = true
					break
				}
			}
		}
	}

	// Step 3: everything left (input-registering flip-flops, isolated
	// cells) goes to group 0, as do regions that ended up with no
	// sequential elements (e.g. gates cut off by false-path marking): a
	// region without registers has no controller.
	res := GroupingResult{}
	seqIn := map[int]bool{}
	for _, in := range m.Insts {
		if in.Cell != nil && in.Cell.Seq != nil {
			seqIn[in.Group] = true
		}
	}
	for _, in := range m.Insts {
		if in.Group == -1 || (in.Group > 0 && !seqIn[in.Group]) {
			in.Group = 0
			res.Group0++
		}
	}
	res.Groups = compactGroups(m)
	return res
}

// compactGroups renumbers groups densely (1..n, keeping 0) and returns n.
func compactGroups(m *netlist.Module) int {
	used := map[int]bool{}
	for _, in := range m.Insts {
		if in.Group > 0 {
			used[in.Group] = true
		}
	}
	ids := make([]int, 0, len(used))
	for id := range used {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	remap := map[int]int{}
	for i, id := range ids {
		remap[id] = i + 1
	}
	for _, in := range m.Insts {
		if in.Group > 0 {
			in.Group = remap[in.Group]
		}
	}
	return len(ids)
}

// MarkFalsePaths flags the named nets as false paths so grouping and the
// dependency graph ignore them (global resets, clock-gating enables —
// §3.2.2 "False Paths"). Unknown names are reported.
func MarkFalsePaths(m *netlist.Module, names []string) []string {
	var missing []string
	for _, name := range names {
		if n := m.Net(name); n != nil {
			n.FalsePath = true
		} else {
			missing = append(missing, name)
		}
	}
	return missing
}

// isComb reports whether grouping should traverse through the cell. Tie
// cells are excluded: a constant fans out to unrelated clouds and carries no
// data dependency, so traversing it would merge every region touching a
// constant.
func isComb(in *netlist.Inst) bool {
	return in.Cell != nil && in.Cell.Kind == netlist.KindComb
}

func pinDefOf(ref netlist.PinRef) *netlist.PinDef {
	if ref.Inst == nil || ref.Inst.Cell == nil {
		return nil
	}
	return ref.Inst.Cell.Pin(ref.Pin)
}
