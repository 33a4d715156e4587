// Package expt regenerates every table and figure of the paper's
// evaluation (Chapter 5, plus Table 2.1 and Fig 2.4): it runs the full
// synchronous and desynchronization flows on the two case studies, measures
// area, timing, power and variability tolerance, and renders the results as
// text tables. cmd/experiments and bench_test.go drive it.
package expt

import (
	"context"
	"fmt"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/dft"
	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/pnr"
	"desync/internal/power"
	"desync/internal/sim"
	"desync/internal/sta"
	"desync/internal/stdcells"
)

// DLXFlow holds the fully implemented synchronous and desynchronized DLX.
type DLXFlow struct {
	Sync   *netlist.Design
	Desync *netlist.Design
	Result *core.Result
	// Period is the synchronous worst-case clock period from STA (ns).
	Period float64
	// BestPeriod is the same budget at the best corner.
	BestPeriod float64
	// Layouts when P&R has run.
	SyncLayout, DesyncLayout *pnr.Layout
	// Post-synthesis snapshots taken before P&R.
	SyncSynth, DesyncSynth Breakdown
}

// FlowConfig selects optional steps.
type FlowConfig struct {
	MuxTaps bool
	Layout  bool
	// Margin overrides the delay-element sizing margin (0 = default).
	Margin float64
	// SingleRegion desynchronizes the whole design as one region (the
	// ARM-style fallback), for the grouping ablation.
	SingleRegion bool
	// Backend selects the conversion backend (empty = the desync default).
	Backend string
	// Mode selects a backend sub-strategy; core.ModeCompletion replaces
	// delay elements with dual-rail completion networks (§2.4.4).
	Mode core.Mode
	// Parallelism bounds the flow's parallel kernels; 0 means GOMAXPROCS.
	// The results are identical at any value.
	Parallelism int
}

// RunDLXFlow implements the experimental procedure of Fig 5.1 for the DLX:
// the same generated netlist goes once through the synchronous backend and
// once through desynchronization plus the same backend.
func RunDLXFlow(cfg FlowConfig) (*DLXFlow, error) {
	lib := stdcells.New(stdcells.HighSpeed)
	prog := designs.TestProgram()
	f := &DLXFlow{}
	var err error
	if f.Sync, err = designs.BuildDLX(lib, prog); err != nil {
		return nil, err
	}
	// A second identical netlist for the desynchronization branch (the
	// paper's flow forks the post-synthesis netlist).
	lib2 := stdcells.New(stdcells.HighSpeed)
	if f.Desync, err = designs.BuildDLX(lib2, prog); err != nil {
		return nil, err
	}
	// Remove generator buffering artifacts from the synchronous branch the
	// same way the desynchronization import does, so the area comparison
	// starts from the same logical netlist.
	core.CleanLogic(f.Sync.Top)
	// The synchronous clock at both corners, with a small clock margin.
	if f.Period, err = sta.ClockPeriod(context.Background(), f.Sync.Top, netlist.Worst, sta.Options{}, 1.05); err != nil {
		return nil, err
	}
	if f.BestPeriod, err = sta.ClockPeriod(context.Background(), f.Sync.Top, netlist.Best, sta.Options{}, 1.05); err != nil {
		return nil, err
	}
	if cfg.SingleRegion {
		for _, in := range f.Desync.Top.Insts {
			in.Group = 1
		}
	}
	f.Result, err = core.Convert(context.Background(), f.Desync, core.Options{
		Backend:      cfg.Backend,
		Mode:         cfg.Mode,
		Period:       f.Period,
		Margin:       cfg.Margin,
		MuxTaps:      cfg.MuxTaps,
		ManualGroups: cfg.SingleRegion,
		Parallelism:  cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	f.SyncSynth = BreakdownOf(f.Sync.Top)
	f.DesyncSynth = BreakdownOf(f.Desync.Top)
	if cfg.Layout {
		opts := pnr.DefaultOptions()
		opts.Utilization = 0.95
		if f.SyncLayout, err = pnr.PlaceAndRoute(f.Sync, opts); err != nil {
			return nil, err
		}
		opts.Utilization = 0.91
		if f.DesyncLayout, err = pnr.PlaceAndRoute(f.Desync, opts); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// ARMFlow holds the ARM case study (area only, as in §5.3).
type ARMFlow struct {
	Sync, Desync             *netlist.Design
	Result                   *core.Result
	ScanChain                int
	Coverage                 float64
	SyncSynth, DesyncSynth   Breakdown
	SyncLayout, DesyncLayout *pnr.Layout
}

// RunARMFlow builds the ARM-like scan design on the Low-Leakage library,
// inserts scan, extracts vectors, desynchronizes it as a single region
// (§5.3: grouping the ARM automatically was not possible; one group was
// used), and runs both backends.
func RunARMFlow(layout bool) (*ARMFlow, error) {
	f := &ARMFlow{}
	build := func() (*netlist.Design, error) {
		lib := stdcells.New(stdcells.LowLeakage)
		d, err := designs.BuildARMLike(lib, 42)
		if err != nil {
			return nil, err
		}
		res, err := dft.InsertScan(d)
		if err != nil {
			return nil, err
		}
		f.ScanChain = res.ChainLen
		return d, nil
	}
	var err error
	if f.Sync, err = build(); err != nil {
		return nil, err
	}
	core.CleanLogic(f.Sync.Top)
	cov, err := dft.GenerateVectors(f.Sync, 64, 11)
	if err != nil {
		return nil, err
	}
	f.Coverage = cov.Coverage()
	if f.Desync, err = build(); err != nil {
		return nil, err
	}
	period, err := sta.ClockPeriod(context.Background(), f.Sync.Top, netlist.Worst, sta.Options{}, 1.05)
	if err != nil {
		return nil, err
	}
	if f.Result, err = core.Convert(context.Background(), f.Desync, core.Options{
		Period:       period,
		ManualGroups: true,
	}); err != nil {
		return nil, err
	}
	f.SyncSynth = BreakdownOf(f.Sync.Top)
	f.DesyncSynth = BreakdownOf(f.Desync.Top)
	if layout {
		opts := pnr.DefaultOptions()
		opts.Utilization = 0.80 // the paper's ARM used a roomier floorplan
		if f.SyncLayout, err = pnr.PlaceAndRoute(f.Sync, opts); err != nil {
			return nil, err
		}
		opts.Utilization = 0.88
		if f.DesyncLayout, err = pnr.PlaceAndRoute(f.Desync, opts); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// MeasureRun is one desynchronized simulation outcome.
type MeasureRun struct {
	EffectivePeriod float64
	Cycles          int
	Correct         bool // flow-equivalent to the golden model
	DynamicMW       float64
	LeakageMW       float64
}

// MeasureDDLX simulates the desynchronized DLX at a corner (optionally
// scaled for inter-die variability) with the given delay selection, and
// measures the effective period, correctness against the golden model and
// power. sel < 0 means the design has no selection ports.
func MeasureDDLX(f *DLXFlow, corner netlist.Corner, scale float64, sel int, cycles int) (*MeasureRun, error) {
	s, err := sim.New(f.Desync.Top, sim.Config{Corner: corner, Scale: scale})
	if err != nil {
		return nil, err
	}
	if sel >= 0 {
		for i := 0; i < 3; i++ {
			if err := s.Drive(fmt.Sprintf("delsel[%d]", i), logic.FromBool(sel>>i&1 == 1), 0); err != nil {
				return nil, err
			}
		}
	}
	s.Drive("rstn", logic.L, 0)
	s.Drive("rst_desync", logic.H, 0)
	s.Drive("rstn", logic.H, 1)
	s.Drive("rst_desync", logic.L, 2)
	// Bound the run generously: worst corner, longest tap.
	horizon := 2 + f.Period*float64(cycles)*6*scale
	if err := s.Run(horizon); err != nil {
		return nil, err
	}

	times := s.CaptureTimes["pc_r[0]/sl"]
	run := &MeasureRun{Cycles: len(times)}
	if len(times) < cycles/2 {
		return nil, fmt.Errorf("expt: desynchronized DLX stalled: %d captures", len(times))
	}
	// Steady-state effective period: skip the boot transient.
	skip := 3
	if len(times) <= skip+2 {
		skip = 0
	}
	run.EffectivePeriod = (times[len(times)-1] - times[skip]) / float64(len(times)-1-skip)

	// Correctness: PC trace and R7 against the golden model. The trace is
	// compared only over cycles where every PC bit has a capture (the run
	// horizon can cut a capture wave in half).
	model := designs.NewModel(designs.TestProgram())
	model.Run(len(times))
	kmax := len(times)
	for i := 0; i < designs.PCBits; i++ {
		if n := len(s.Captures[fmt.Sprintf("pc_r[%d]/sl", i)]); n < kmax {
			kmax = n
		}
	}
	run.Correct = true
	for k := 0; k < kmax && run.Correct; k++ {
		var pc uint16
		for i := 0; i < designs.PCBits; i++ {
			if s.Captures[fmt.Sprintf("pc_r[%d]/sl", i)][k] == logic.H {
				pc |= 1 << uint(i)
			}
		}
		if pc != model.Trace[k] {
			run.Correct = false
		}
	}
	// R7 check from the recorded capture values (net state can be cut
	// mid-settling by the run horizon): the k-th capture of the rf7 slave
	// latches is R7 after k+1 model cycles.
	kLast := -1
	for i := 0; i < 16; i++ {
		n := len(s.Captures[fmt.Sprintf("rf7_r[%d]/sl", i)])
		if kLast < 0 || n-1 < kLast {
			kLast = n - 1
		}
	}
	if kLast < 1 {
		run.Correct = false
	} else {
		m2 := designs.NewModel(designs.TestProgram())
		m2.Run(kLast + 1)
		var r7 uint16
		for i := 0; i < 16; i++ {
			if s.Captures[fmt.Sprintf("rf7_r[%d]/sl", i)][kLast] == logic.H {
				r7 |= 1 << uint(i)
			}
		}
		if r7 != m2.Regs[7] {
			run.Correct = false
		}
	}

	// Power over the active window.
	duration := times[len(times)-1] - 2
	rep, err := power.Estimate(f.Desync.Top, s, duration, corner)
	if err != nil {
		return nil, err
	}
	run.DynamicMW, run.LeakageMW = rep.DynamicMW, rep.LeakageMW
	return run, nil
}

// MeasureDLX simulates the synchronous DLX at a corner and period and
// returns its power (its period is the clock, not a measurement).
func MeasureDLX(f *DLXFlow, corner netlist.Corner, period float64, cycles int) (*MeasureRun, error) {
	s, err := sim.New(f.Sync.Top, sim.Config{Corner: corner})
	if err != nil {
		return nil, err
	}
	s.Drive("rstn", logic.L, 0)
	s.Drive("rstn", logic.H, period*0.4)
	s.Clock("clk", period, 0, period*float64(cycles))
	if err := s.RunUntilQuiescent(); err != nil {
		return nil, err
	}
	n := len(s.Captures["pc_r[0]"])
	model := designs.NewModel(designs.TestProgram())
	model.Run(n)
	run := &MeasureRun{EffectivePeriod: period, Cycles: n, Correct: true}
	if r7 := s.Vector("rf7_q", 16); !r7.Known() || uint16(r7.Uint()) != model.Regs[7] {
		run.Correct = false
	}
	rep, err := power.Estimate(f.Sync.Top, s, period*float64(cycles), corner)
	if err != nil {
		return nil, err
	}
	run.DynamicMW, run.LeakageMW = rep.DynamicMW, rep.LeakageMW
	return run, nil
}
