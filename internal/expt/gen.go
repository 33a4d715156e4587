package expt

import (
	"context"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/sta"
)

// GenFlow holds a generic desynchronization run over any generator spec
// designs.ParseSpec accepts — the path drequiv and drsweep take for
// parametric designs (pipeline, riscv, des), where no hand-tuned
// case-study flow exists.
type GenFlow struct {
	Spec   string
	Sync   *netlist.Design
	Desync *netlist.Design
	Result *core.Result
	// Period is the synchronous worst-case clock period from STA (ns).
	Period float64
}

// RunGenFlow builds the spec's design twice (a synchronous reference and
// the desynchronization branch), takes the clock period from STA exactly as
// the FIR flow does, and desynchronizes. Pre-grouped generators (arm and
// the pipeline family) run with manual grouping — the generator bakes the
// region assignment into the instances.
func RunGenFlow(spec string, cfg FlowConfig) (*GenFlow, error) {
	f := &GenFlow{Spec: spec}
	var err error
	if f.Sync, err = designs.ParseSpec(spec, nil); err != nil {
		return nil, err
	}
	core.CleanLogic(f.Sync.Top)
	if f.Period, err = sta.ClockPeriod(context.Background(), f.Sync.Top, netlist.Worst, sta.Options{}, 1.15); err != nil {
		return nil, err
	}

	if f.Desync, err = designs.ParseSpec(spec, nil); err != nil {
		return nil, err
	}
	f.Result, err = core.Convert(context.Background(), f.Desync, core.Options{
		Backend:      cfg.Backend,
		Mode:         cfg.Mode,
		Period:       f.Period,
		Margin:       cfg.Margin,
		MuxTaps:      cfg.MuxTaps,
		ManualGroups: designs.PreGrouped(spec),
		Parallelism:  cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}
