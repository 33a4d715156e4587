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
	"desync/internal/faults"
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
	if err := faults.NewDriver(f.Design.Top, f.Result.Reset, sel, nil).Start(s); err != nil {
		return nil, err
	}
	// Bound the run generously: worst corner, longest tap.
	horizon := 2 + f.Period*float64(cycles)*6*scale
	if err := s.Run(horizon); err != nil {
		return nil, err
	}

	times := s.CaptureTimes["pc_r[0]/sl"]
	run, err := measured(times, cycles, "DLX")
	if err != nil {
		return nil, err
	}
	// Correctness: PC trace and R7 against the golden model; the k-th rf7
	// capture is R7 after k+1 model cycles.
	model := designs.NewModel(designs.TestProgram())
	model.Run(len(times))
	r7s := slaveWords(s, "rf7_r", 16)
	run.Correct = len(r7s) >= 2
	for k, pc := range slaveWords(s, "pc_r", designs.PCBits) {
		run.Correct = run.Correct && pc == model.Trace[k]
	}
	if run.Correct {
		m2 := designs.NewModel(designs.TestProgram())
		m2.Run(len(r7s))
		run.Correct = r7s[len(r7s)-1] == m2.Regs[7]
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

// measured starts a run's record from one register bit's slave capture
// times: the count and the steady-state period past the boot transient.
func measured(times []float64, want int, design string) (*MeasureRun, error) {
	if len(times) < want/2 {
		return nil, fmt.Errorf("expt: desynchronized %s stalled: %d captures", design, len(times))
	}
	skip := 3
	if len(times) <= skip+2 {
		skip = 0
	}
	return &MeasureRun{Cycles: len(times), EffectivePeriod: (times[len(times)-1] - times[skip]) / float64(len(times)-1-skip)}, nil
}

// slaveWords reads the slave captures of the register bus base[0..width)
// as words, over the captures every bit has made (a run's horizon can cut
// a capture wave in half).
func slaveWords(s *sim.Simulator, base string, width int) []uint16 {
	n := len(s.Captures[netlist.BusBit(base, 0)+"/sl"])
	for i := 1; i < width; i++ {
		n = min(n, len(s.Captures[netlist.BusBit(base, i)+"/sl"]))
	}
	words := make([]uint16, n)
	for k := range words {
		for i := 0; i < width; i++ {
			if s.Captures[netlist.BusBit(base, i)+"/sl"][k] == logic.H {
				words[k] |= 1 << i
			}
		}
	}
	return words
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
