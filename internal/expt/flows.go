// Package expt regenerates every table and figure of the paper's
// evaluation (Chapter 5, plus Table 2.1 and Fig 2.4): it forks each case
// study into a synchronous branch and one converted through the verified
// flow, measures area, timing, power and variability tolerance, and renders
// the results as text tables. cmd/experiments and bench_test.go drive it.
package expt

import (
	"context"
	"fmt"
	"strings"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/dft"
	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/power"
	"desync/internal/sim"
	"desync/internal/sta"
	"desync/internal/vflow"
)

// FlowConfig selects the conversion options of one experiment.
type FlowConfig struct {
	MuxTaps bool
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
}

// Flow is one run of the experimental procedure of Fig 5.1: the same
// generated netlist is built twice, one copy stays synchronous and the
// other goes through the verified conversion flow (vflow.Run), with the
// same gates and §5.3 fallbacks drdesync and drserve run. The embedded
// Outcome holds the converted design, the flow result and every verdict
// and fallback behind an experiment's numbers.
type Flow struct {
	// Spec is the designs.ParseSpec generator spec both branches build.
	Spec string
	// Sync is the synchronous branch, cleaned the way the conversion's
	// import cleans, so area comparisons start from the same logical
	// netlist.
	Sync *netlist.Design
	// Period is the synchronous worst-corner clock period from STA (ns);
	// it also clocks the conversion.
	Period float64
	*vflow.Outcome
}

// RunFlow runs the experimental procedure for a generator spec. The ARM
// is built as a scan design on both branches (§5.3). Pre-grouped
// generators keep the region assignment they bake into the instances;
// the ARM is one of them, so it converts as the single region §5.3 used.
func RunFlow(spec string, cfg FlowConfig) (*Flow, error) {
	f := &Flow{Spec: spec}
	var err error
	if f.Sync, err = build(spec); err != nil {
		return nil, err
	}
	core.CleanLogic(f.Sync.Top)
	if f.Period, err = f.ClockPeriod(netlist.Worst); err != nil {
		return nil, err
	}
	f.Outcome, err = vflow.Run(context.Background(), func() (*netlist.Design, error) {
		d, err := build(spec)
		if err == nil && cfg.SingleRegion {
			for _, in := range d.Top.Insts {
				in.Group = 1
			}
		}
		return d, err
	}, vflow.Options{Flow: core.Options{
		Backend:      cfg.Backend,
		Mode:         cfg.Mode,
		Period:       f.Period,
		Margin:       cfg.Margin,
		MuxTaps:      cfg.MuxTaps,
		ManualGroups: cfg.SingleRegion || designs.PreGrouped(spec),
	}})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// build generates one branch of spec.
func build(spec string) (*netlist.Design, error) {
	d, err := designs.ParseSpec(spec, nil)
	if err != nil || spec != "arm" {
		return d, err
	}
	_, err = dft.InsertScan(d)
	return d, err
}

// ClockPeriod is the synchronous branch's STA clock period at a corner,
// with the clock margin of the design's case study: 5% for the DLX and
// the ARM (§5.2, §5.3), 15% for everything else.
func (f *Flow) ClockPeriod(corner netlist.Corner) (float64, error) {
	margin := 1.15
	if f.Spec == "dlx" || f.Spec == "arm" {
		margin = 1.05
	}
	return sta.ClockPeriod(context.Background(), f.Sync.Top, corner, sta.Options{}, margin)
}

// RenderGates prints the verified run behind an experiment's numbers: one
// line naming every gate's verdict (with the reason when it did not simply
// run), then one line per fallback that fired.
func (f *Flow) RenderGates() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  verified flow (%s, %s):", f.Spec, f.Result.Backend)
	for i, v := range f.Verdicts {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, " %s %s", v.Step, v.Status)
		if v.Status != vflow.Ran {
			fmt.Fprintf(&sb, " (%s)", v.Reason)
		}
	}
	sb.WriteByte('\n')
	for _, v := range f.Degraded {
		fmt.Fprintf(&sb, "  fallback at %s: %s\n", v.Step, v.Reason)
	}
	return sb.String()
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
func MeasureDDLX(f *Flow, corner netlist.Corner, scale float64, sel int, cycles int) (*MeasureRun, error) {
	s, err := sim.New(f.Design.Top, sim.Config{Corner: corner, Scale: scale})
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
	rep, err := power.Estimate(f.Design.Top, s, duration, corner)
	if err != nil {
		return nil, err
	}
	run.DynamicMW, run.LeakageMW = rep.DynamicMW, rep.LeakageMW
	return run, nil
}

// MeasureDLX simulates the synchronous DLX at a corner and period and
// returns its power (its period is the clock, not a measurement).
func MeasureDLX(f *Flow, corner netlist.Corner, period float64, cycles int) (*MeasureRun, error) {
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
