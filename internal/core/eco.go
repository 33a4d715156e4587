package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"desync/internal/ctrlnet"
	"desync/internal/netlist"
	"desync/internal/sta"
)

// ECORow is the post-layout verdict for one region's matched delay element.
type ECORow struct {
	Region       int
	ElementDelay float64 // post-layout delay through the element path (ns)
	Budget       float64 // post-layout launch+comb+setup budget (ns)
	Covered      bool
	AddedLevels  int // levels spliced in by the repair
}

// ECOCalibrate re-verifies every matched delay element against post-layout
// timing (wire delays annotated by P&R) and, when repair is true, fixes any
// shortfall by splicing extra AND levels into the element — the Engineering
// Change Order the paper's future-work section proposes: "after the final
// layout, ECO can be used to calibrate the length of the delay elements
// taking into consideration the final delays including full parasitics"
// (§6). Returns one row per region with a fixed element.
//
// The repair path splices gates into the shared netlist, so regions
// calibrate serially; cancellation is observed between regions.
func ECOCalibrate(ctx context.Context, d *netlist.Design, res *Result, margin float64, repair bool) ([]ECORow, error) {
	if margin <= 0 {
		margin = 1.15
	}
	m := d.Top
	rows := []ECORow{}
	for _, g := range res.DDG.Nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row, ok, err := ecoRegion(ctx, d, res, g, margin, repair)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Region < rows[j].Region })
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: no matched delay elements to calibrate")
	}
	_ = m
	return rows, nil
}

func ecoRegion(ctx context.Context, d *netlist.Design, res *Result, g int, margin float64, repair bool) (ECORow, bool, error) {
	m := d.Top
	ctl := m.Inst(ctrlnet.CtrlGate(g, true, ctrlnet.GateG))
	if ctl == nil || m.Inst(ctrlnet.ChainStage(ctrlnet.DelayPrefix(g), 1)) == nil {
		return ECORow{}, false, nil // completion-detected or env region
	}
	row := ECORow{Region: g}
	for attempt := 0; ; attempt++ {
		elem, budget, err := ecoMeasure(ctx, d, res, g, ctl)
		if err != nil {
			return ECORow{}, false, err
		}
		row.ElementDelay, row.Budget = elem, budget
		// Covered means the element exceeds the raw post-layout budget; the
		// margin decides how much headroom a repair targets.
		row.Covered = elem >= budget
		if row.Covered || !repair {
			return row, true, nil
		}
		if attempt > 4 {
			return row, true, fmt.Errorf("core: ECO did not converge on region %d", g)
		}
		// Splice the shortfall (with margin) into the element, right before
		// the master's request input.
		and := d.Lib.MustCell("AND2X1")
		level := and.Arc("A", "Z").Rise.At(netlist.Worst)
		need := int(math.Ceil((budget*margin - elem) / level))
		if need < 1 {
			need = 1
		}
		if err := spliceLevels(d, g, need); err != nil {
			return row, true, err
		}
		row.AddedLevels += need
	}
}

// ecoMeasure computes the post-layout element path delay (arrival at the
// master controller's request pin) and the region's post-layout budget.
func ecoMeasure(ctx context.Context, d *netlist.Design, res *Result, g int, ctl *netlist.Inst) (elem, budget float64, err error) {
	graph, err := sta.Build(d.Top, sta.Options{
		Corner:        netlist.Worst,
		Disabled:      res.DisabledArcMap(),
		UseWireDelays: true,
	})
	if err != nil {
		return 0, 0, err
	}
	r := graph.Analyze()
	id := graph.NodeID(ctl, "B")
	if id < 0 {
		return 0, 0, fmt.Errorf("core: region %d request pin missing", g)
	}
	elem = r.MaxAt(id)
	if math.IsInf(elem, -1) {
		return 0, 0, fmt.Errorf("core: region %d request path unconstrained", g)
	}
	rds, err := r.RegionDelays(ctx)
	if err != nil {
		return 0, 0, err
	}
	if rd := rds[g]; rd != nil {
		budget = rd.Budget()
	}
	return elem, budget, nil
}

// spliceLevels inserts extra asymmetric AND levels between the element's
// current output and the master's request input — an incremental netlist
// change, as an ECO would be. Each level is gated by the element's primary
// input so the return-to-zero stays fast (Fig 2.9's structure).
func spliceLevels(d *netlist.Design, g, levels int) error {
	m := d.Top
	mri := m.Net(ctrlnet.Name(g, "mri"))
	if mri == nil || mri.Driver.Inst == nil {
		return fmt.Errorf("core: region %d request net not found", g)
	}
	first := m.Inst(ctrlnet.ChainStage(ctrlnet.DelayPrefix(g), 1))
	if first == nil {
		return fmt.Errorf("core: region %d delay element not found", g)
	}
	in := first.Conn("B") // the element's primary input
	drv := mri.Driver
	m.Disconnect(drv.Inst, drv.Pin)
	prev := m.AddNet(ctrlnet.Name(g, fmt.Sprintf("eco_in%d", len(m.Nets))))
	m.MustConnect(drv.Inst, drv.Pin, prev)
	and := d.Lib.MustCell("AND2X1")
	for i := 0; i < levels; i++ {
		out := mri
		if i != levels-1 {
			out = m.AddNet(ctrlnet.Name(g, fmt.Sprintf("eco%d_%d", len(m.Nets), i)))
		}
		gate := m.AddInst(ctrlnet.Name(g, fmt.Sprintf("eco%d", len(m.Insts))), and)
		gate.Origin = "delem"
		gate.SizeOnly = true
		m.MustConnect(gate, "A", prev)
		m.MustConnect(gate, "B", in)
		m.MustConnect(gate, "Z", out)
		prev = out
	}
	return nil
}
