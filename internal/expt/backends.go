package expt

import (
	"context"
	"fmt"
	"strings"

	"desync/internal/core"
	"desync/internal/netlist"
	"desync/internal/sta"
	"desync/internal/twophase"
)

// BackendCell is one backend's outcome on one design: the converted
// netlist's size and the cycle time the conversion commits to, with the
// overheads against the synchronous reference.
type BackendCell struct {
	Backend    string
	Cells      int
	CellArea   float64
	AreaOvhPct float64
	// Period is the backend's operating cycle time: the worst
	// launch-to-capture budget scaled by the sizing margin for the desync
	// backend (what the matched delay elements enforce), the generated
	// clock period for the twophase backend (what the ring oscillates at).
	Period       float64
	PeriodOvhPct float64
	// Gates is the verified run's verdict line (Flow.RenderGates).
	Gates string
}

// BackendRow is one design's line of the comparison: the synchronous
// reference and every backend's conversion of it.
type BackendRow struct {
	Spec       string
	SyncCells  int
	SyncArea   float64
	SyncPeriod float64
	Backends   []BackendCell
}

// DefaultComparisonSpecs is the design set of the backend comparison: the
// three case studies plus one parametric pipeline, so the table covers both
// libraries, manual and automatic grouping, and a generator-driven design.
var DefaultComparisonSpecs = []string{
	"dlx", "arm", "fir", "pipeline:depth=8,width=16,regions=8",
}

// CompareBackends converts every spec with every backend and assembles the
// comparison rows. The synchronous reference (size and STA period) is taken
// once per spec from the first backend's run — the reference build is
// backend-independent by construction. Its period is the critical path
// scaled by the sizing margin the conversions are held to, not by the
// design's own clock margin, so every period column carries one margin.
func CompareBackends(specs, backends []string, cfg FlowConfig) ([]BackendRow, error) {
	margin := cfg.Margin
	if margin == 0 {
		margin = 1.15
	}
	var rows []BackendRow
	for _, spec := range specs {
		row := BackendRow{Spec: spec}
		for _, be := range backends {
			c := cfg
			c.Backend = be
			f, err := RunFlow(spec, c)
			if err != nil {
				return nil, fmt.Errorf("%s with the %s backend: %w", spec, be, err)
			}
			if row.Backends == nil {
				sb := BreakdownOf(f.Sync.Top)
				row.SyncCells, row.SyncArea = sb.Cells, sb.CellArea
				if row.SyncPeriod, err = sta.ClockPeriod(context.Background(), f.Sync.Top, netlist.Worst, sta.Options{}, margin); err != nil {
					return nil, err
				}
			}
			db := BreakdownOf(f.Design.Top)
			cell := BackendCell{
				Backend: f.Result.Backend, Cells: db.Cells, CellArea: db.CellArea,
				Period: operatingPeriod(f.Result, margin), Gates: f.RenderGates(),
			}
			if row.SyncArea != 0 {
				cell.AreaOvhPct = (db.CellArea - row.SyncArea) / row.SyncArea * 100
			}
			if row.SyncPeriod != 0 {
				cell.PeriodOvhPct = (cell.Period - row.SyncPeriod) / row.SyncPeriod * 100
			}
			row.Backends = append(row.Backends, cell)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// operatingPeriod is the cycle time a conversion commits the design to.
// The twophase backend names it directly — the generated clock's period.
// The desync backend has no clock; its steady-state cycle is bounded by
// the slowest region's matched delay, i.e. the worst budget scaled by the
// sizing margin (the same quantity the delay elements were sized to cover).
func operatingPeriod(res *core.Result, margin float64) float64 {
	if tp, ok := res.BackendResult.(*twophase.Result); ok {
		return tp.Period
	}
	return sta.WorstBudget(res.RegionDelays) * margin
}

// RenderBackendTable prints the comparison in the report layout of
// EXPERIMENTS.md §Backend comparison, then the verdicts of every
// conversion behind it.
func RenderBackendTable(rows []BackendRow) string {
	var sb strings.Builder
	sb.WriteString("Backend comparison: area and cycle time per conversion\n")
	fmt.Fprintf(&sb, "  %-36s %-10s %8s %14s %10s %12s %10s\n",
		"design", "backend", "cells", "area (um2)", "area +%", "period (ns)", "period +%")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-36s %-10s %8d %14.2f %10s %12.3f %10s\n",
			r.Spec, "sync", r.SyncCells, r.SyncArea, "-", r.SyncPeriod, "-")
		for _, c := range r.Backends {
			fmt.Fprintf(&sb, "  %-36s %-10s %8d %14.2f %10.2f %12.3f %10.2f\n",
				"", c.Backend, c.Cells, c.CellArea, c.AreaOvhPct, c.Period, c.PeriodOvhPct)
		}
	}
	for _, r := range rows {
		for _, c := range r.Backends {
			sb.WriteString(c.Gates)
		}
	}
	return sb.String()
}
