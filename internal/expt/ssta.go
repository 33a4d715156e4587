package expt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"desync/internal/ctrlnet"
	"desync/internal/netlist"
	"desync/internal/ssta"
	"desync/internal/sta"
	"desync/internal/stdcells"
)

// MatchRow is the statistical delay-element-matching verdict for one
// region: the SSTA distributions of the matched delay element's path and
// the logic it shadows, and the probability the element covers the logic —
// computed both on-die (shared global variation, the desynchronization
// situation) and for a hypothetical independently-varying reference.
type MatchRow struct {
	Region           int
	Element          ssta.Dist
	Logic            ssta.Dist
	CoverShared      float64
	CoverIndependent float64
}

// SSTAMatching performs the verification the paper's future-work section
// describes: statistical STA over the desynchronized design, checking how
// well each region's delay element tracks its logic across the whole
// spectrum of operating conditions. The shared-global coverage is the real
// situation (element and logic on the same die); the independent column
// shows what an off-die reference of the same nominal margin would achieve.
func SSTAMatching(f *Flow) ([]MatchRow, error) {
	d, res := f.Design, f.Result
	model := ssta.DefaultModel(stdcells.CornerSpread)
	r, err := ssta.Analyze(d.Top, sta.Options{
		Disabled: res.DisabledArcMap(),
	}, model)
	if err != nil {
		return nil, err
	}
	m := d.Top

	// Launch + capture guard of a latch pair, as a canonical form.
	var c2q, setup float64
	for _, c := range d.Lib.Cells {
		if c.Kind != netlist.KindLatch {
			continue
		}
		if a := c.Arc(c.Seq.ClockPin, c.Seq.Q); a != nil {
			c2q = math.Max(c2q, math.Max(a.Rise.Best, a.Fall.Best))
		}
		setup = math.Max(setup, c.Setup.Best)
	}
	guard := model.CellDelay(c2q + setup)

	var rows []MatchRow
	for _, g := range res.DDG.Nodes {
		ctl := m.Inst(ctrlnet.CtrlGate(g, true, ctrlnet.GateG))
		if ctl == nil {
			continue
		}
		elem, err := r.ArrivalAt(ctl, "B")
		if err != nil {
			continue // completion-detected or env-driven region
		}
		var logicD ssta.Dist
		found := false
		for _, in := range m.Insts {
			if in.Group != g || in.Cell == nil || in.Cell.Kind != netlist.KindLatch {
				continue
			}
			if !strings.HasSuffix(in.Name, "/ml") {
				continue
			}
			d, err := r.ArrivalAt(in, "D")
			if err != nil {
				continue // direct register-to-register input
			}
			if !found {
				logicD = d
				found = true
			} else {
				logicD = ssta.Max(logicD, d)
			}
		}
		if !found {
			continue
		}
		logicTotal := logicD.Add(guard)
		rows = append(rows, MatchRow{
			Region:           g,
			Element:          elem,
			Logic:            logicTotal,
			CoverShared:      ssta.CoverageProbability(elem, logicTotal, 0, true),
			CoverIndependent: ssta.CoverageProbability(elem, logicTotal, 0, false),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Region < rows[j].Region })
	if len(rows) == 0 {
		return nil, fmt.Errorf("expt: no regions with matched delay elements")
	}
	return rows, nil
}

// RenderSSTA prints the matching table.
func RenderSSTA(rows []MatchRow) string {
	var sb strings.Builder
	sb.WriteString("Delay-element matching under SSTA (§6 future work)\n")
	sb.WriteString("  element and logic as mean±sigma (ns); coverage = P(element ≥ logic)\n")
	fmt.Fprintf(&sb, "  %-7s %16s %16s %12s %14s\n",
		"region", "delay element", "logic+guard", "on-die", "off-die ref")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-7d %9.3f±%.3f %9.3f±%.3f %11.1f%% %13.1f%%\n",
			r.Region, r.Element.Mean, r.Element.Sigma(),
			r.Logic.Mean, r.Logic.Sigma(),
			r.CoverShared*100, r.CoverIndependent*100)
	}
	return sb.String()
}
