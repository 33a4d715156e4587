package expt

import (
	"fmt"
	"strings"

	"desync/internal/dft"
	"desync/internal/netlist"
	"desync/internal/pnr"
)

// Breakdown is the area accounting used by Tables 5.1/5.2. Following the
// paper's convention for the ARM (§5.3.1), the helper gates created by
// flip-flop substitution (scan muxes, set/reset gating) are attributed to
// sequential logic, so the substitution overhead lands in the sequential
// row.
type Breakdown struct {
	Nets     int
	Cells    int
	CellArea float64
	CombArea float64
	SeqArea  float64
}

// BreakdownOf computes the accounting over a flat module.
func BreakdownOf(m *netlist.Module) Breakdown {
	b := Breakdown{Nets: len(m.Nets)}
	for _, in := range m.Insts {
		if in.Cell == nil {
			continue
		}
		b.Cells++
		b.CellArea += in.Cell.Area
		seq := in.Cell.IsSequential() || in.Origin == "ffsub"
		if seq {
			b.SeqArea += in.Cell.Area
		} else {
			b.CombArea += in.Cell.Area
		}
	}
	return b
}

// AreaRow is one comparison line of an area table.
type AreaRow struct {
	Label    string
	Sync     float64
	Desync   float64
	Overhead float64 // percent
}

func row(label string, s, d float64) AreaRow {
	ov := 0.0
	if s != 0 {
		ov = (d - s) / s * 100
	}
	return AreaRow{label, s, d, ov}
}

// AreaTable reproduces the layout of Tables 5.1 and 5.2.
type AreaTable struct {
	Design        string
	PostSynthesis []AreaRow
	PostLayout    []AreaRow
	// BestPeriod is Table 5.1's synchronous clock at the best corner,
	// taken before layout adds clock-tree buffers and wire delays.
	BestPeriod float64
	// ScanChain and Coverage are Table 5.2's scan-chain length and the
	// scan design's random-pattern stuck-at coverage.
	ScanChain int
	Coverage  float64
}

// areaTable lays out both branches of f, at the synchronous and the
// converted branch's core utilization, and assembles the table from the
// post-synthesis snapshots taken before layout.
func areaTable(design string, f *Flow, syncUtil, desyncUtil float64) (*AreaTable, error) {
	ss, ds := BreakdownOf(f.Sync.Top), BreakdownOf(f.Design.Top)
	opts := pnr.DefaultOptions()
	opts.Utilization = syncUtil
	sl, err := pnr.PlaceAndRoute(f.Sync, opts)
	if err != nil {
		return nil, err
	}
	opts.Utilization = desyncUtil
	dl, err := pnr.PlaceAndRoute(f.Design, opts)
	if err != nil {
		return nil, err
	}
	t := &AreaTable{Design: design}
	t.PostSynthesis = []AreaRow{
		row("# nets", float64(ss.Nets), float64(ds.Nets)),
		row("# cells", float64(ss.Cells), float64(ds.Cells)),
		row("cell area (um2)", ss.CellArea, ds.CellArea),
		row("combinational logic (um2)", ss.CombArea, ds.CombArea),
		row("sequential logic (um2)", ss.SeqArea, ds.SeqArea),
	}
	s, d := sl.Report, dl.Report
	t.PostLayout = []AreaRow{
		row("# nets", float64(s.Nets), float64(d.Nets)),
		row("# cells", float64(s.Cells), float64(d.Cells)),
		row("standard cell area (um2)", s.StdCellArea, d.StdCellArea),
		row("core size (um2)", s.CoreArea, d.CoreArea),
		row("core utilization (%)", s.Utilization, d.Utilization),
	}
	return t, nil
}

// Table51 runs the full DLX experiment and returns the area table of §5.2.1.
func Table51() (*AreaTable, *Flow, error) {
	f, err := RunFlow("dlx", FlowConfig{})
	if err != nil {
		return nil, nil, err
	}
	best, err := f.ClockPeriod(netlist.Best)
	if err != nil {
		return nil, nil, err
	}
	t, err := areaTable("DLX vs DDLX", f, 0.95, 0.91)
	if err != nil {
		return nil, nil, err
	}
	t.BestPeriod = best
	return t, f, nil
}

// Table52 runs the ARM experiment and returns the area table of §5.3.1,
// with the scan design's random-pattern stuck-at coverage (64 vectors,
// taken before layout) and both layouts. The paper's ARM used a roomier
// floorplan than the DLX.
func Table52() (*AreaTable, *Flow, error) {
	f, err := RunFlow("arm", FlowConfig{})
	if err != nil {
		return nil, nil, err
	}
	cov, err := dft.GenerateVectors(f.Sync, 64, 11)
	if err != nil {
		return nil, nil, err
	}
	t, err := areaTable("ARM vs DARM", f, 0.80, 0.88)
	if err != nil {
		return nil, nil, err
	}
	t.Coverage = cov.Coverage()
	for _, in := range f.Sync.Top.Insts {
		if in.Origin == "scan" && in.Cell.IsSequential() {
			t.ScanChain++
		}
	}
	return t, f, nil
}

// Render prints the table in the paper's layout.
func (t *AreaTable) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Area results: %s\n", t.Design)
	section := func(name string, rows []AreaRow) {
		fmt.Fprintf(&sb, "%s\n", name)
		fmt.Fprintf(&sb, "  %-28s %14s %14s %10s\n", "property", "synchronous", "desync", "% overhead")
		for _, r := range rows {
			fmt.Fprintf(&sb, "  %-28s %14.2f %14.2f %10.2f\n", r.Label, r.Sync, r.Desync, r.Overhead)
		}
	}
	section("Post Synthesis", t.PostSynthesis)
	section("Post Layout", t.PostLayout)
	return sb.String()
}

// Find returns the named row from a section.
func Find(rows []AreaRow, label string) (AreaRow, bool) {
	for _, r := range rows {
		if r.Label == label {
			return r, true
		}
	}
	return AreaRow{}, false
}
