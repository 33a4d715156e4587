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
}

// buildAreaTable assembles the table from the flow snapshots.
func buildAreaTable(design string, ss, ds Breakdown, sl, dl layoutReport) *AreaTable {
	t := &AreaTable{Design: design}
	t.PostSynthesis = []AreaRow{
		row("# nets", float64(ss.Nets), float64(ds.Nets)),
		row("# cells", float64(ss.Cells), float64(ds.Cells)),
		row("cell area (um2)", ss.CellArea, ds.CellArea),
		row("combinational logic (um2)", ss.CombArea, ds.CombArea),
		row("sequential logic (um2)", ss.SeqArea, ds.SeqArea),
	}
	t.PostLayout = []AreaRow{
		row("# nets", float64(sl.nets), float64(dl.nets)),
		row("# cells", float64(sl.cells), float64(dl.cells)),
		row("standard cell area (um2)", sl.stdArea, dl.stdArea),
		row("core size (um2)", sl.coreArea, dl.coreArea),
		row("core utilization (%)", sl.util, dl.util),
	}
	return t
}

type layoutReport struct {
	nets, cells       int
	stdArea, coreArea float64
	util              float64
}

// Table51 runs the full DLX experiment and returns the area table of §5.2.1.
func Table51() (*AreaTable, *DLXFlow, error) {
	f, err := RunDLXFlow(FlowConfig{Layout: true})
	if err != nil {
		return nil, nil, err
	}
	sl := layoutReport{f.SyncLayout.Report.Nets, f.SyncLayout.Report.Cells,
		f.SyncLayout.Report.StdCellArea, f.SyncLayout.Report.CoreArea, f.SyncLayout.Report.Utilization}
	dl := layoutReport{f.DesyncLayout.Report.Nets, f.DesyncLayout.Report.Cells,
		f.DesyncLayout.Report.StdCellArea, f.DesyncLayout.Report.CoreArea, f.DesyncLayout.Report.Utilization}
	return buildAreaTable("DLX vs DDLX", f.SyncSynth, f.DesyncSynth, sl, dl), f, nil
}

// Table52 runs the ARM experiment and returns the area table of §5.3.1,
// with the scan design's random-pattern stuck-at coverage (64 vectors,
// taken before layout) and both layouts.
func Table52() (*AreaTable, *ARMFlow, error) {
	f, err := RunARMFlow()
	if err != nil {
		return nil, nil, err
	}
	cov, err := dft.GenerateVectors(f.Sync, 64, 11)
	if err != nil {
		return nil, nil, err
	}
	f.Coverage = cov.Coverage()
	opts := pnr.DefaultOptions()
	opts.Utilization = 0.80 // the paper's ARM used a roomier floorplan
	if f.SyncLayout, err = pnr.PlaceAndRoute(f.Sync, opts); err != nil {
		return nil, nil, err
	}
	opts.Utilization = 0.88
	if f.DesyncLayout, err = pnr.PlaceAndRoute(f.Desync, opts); err != nil {
		return nil, nil, err
	}
	sl := layoutReport{f.SyncLayout.Report.Nets, f.SyncLayout.Report.Cells,
		f.SyncLayout.Report.StdCellArea, f.SyncLayout.Report.CoreArea, f.SyncLayout.Report.Utilization}
	dl := layoutReport{f.DesyncLayout.Report.Nets, f.DesyncLayout.Report.Cells,
		f.DesyncLayout.Report.StdCellArea, f.DesyncLayout.Report.CoreArea, f.DesyncLayout.Report.Utilization}
	return buildAreaTable("ARM vs DARM", f.SyncSynth, f.DesyncSynth, sl, dl), f, nil
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
