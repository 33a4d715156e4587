// Package static cross-checks the mga static marked-graph engine against
// the two dynamic oracles the repository already has: the event-driven
// simulator's measured steady-state period and the equiv BFS verdicts —
// together with a wall-clock comparison of the two analysis engines over
// the same model extraction.
//
// The static side is the report the verified flow's static gate already
// produced for each converted case study; this package re-times it and
// sets the dynamic oracles beside it.
package static

import (
	"context"
	"fmt"
	"io"
	"time"

	"desync/internal/ctrlnet"
	"desync/internal/equiv"
	"desync/internal/expt"
	"desync/internal/mga"
	"desync/internal/netlist"
)

// Row is one case study's cross-check: the static verdicts and period
// bound next to the simulator's measured period and the SSTA view of the
// slowest region, plus the wall-clock of the static analysis against the
// partial-order-reduced BFS over the same extraction.
type Row struct {
	Design      string
	Regions     int
	Places      int
	Transitions int

	Live bool
	Safe bool

	// StaticNs is the mga maximum-cycle-ratio period bound; SimNs the
	// simulator's measured steady-state effective period (0 when the case
	// study has no simulation testbench); SSTANs the 3σ quantile of the
	// slowest region's SSTA logic-path distribution — a lower bound on any
	// achievable period, not a period prediction, since it excludes the
	// handshake overhead both other columns include.
	StaticNs float64
	SimNs    float64
	SSTANs   float64

	// StaticUS and BFSUS are microseconds per analysis over the same
	// prebuilt model (min over repeats); BFSStates is the reduced search's
	// reachable marking count.
	StaticUS  float64
	BFSUS     float64
	BFSStates int
	Speedup   float64
}

// FullBFS is the unreduced (full-interleaving) DLX exploration: the
// exhaustive search a verifier without partial-order reduction performs,
// and the baseline the ISSUE's speedup requirement is stated against.
type FullBFS struct {
	US        float64
	States    int
	MaxStates int
	Truncated bool
}

// Table holds the full cross-check.
type Table struct {
	Rows []Row
	// DLXFull is the unreduced DLX run (the exhaustive baseline).
	DLXFull FullBFS
	// Gates holds each case study's verified-flow verdict line
	// (expt.Flow.RenderGates), in row order.
	Gates []string
}

// timeStatic measures mga.AnalyzeModel over a prebuilt extraction,
// repeating and taking the minimum so allocator noise does not flatter
// either side.
func timeStatic(mod *netlist.Module, cn *ctrlnet.Network, m *equiv.Model, reps int) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		mga.AnalyzeModel(mod, cn, m, mga.Options{})
		if d := float64(time.Since(t0)) / float64(time.Microsecond); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// timeBFS measures the partial-order-reduced exploration over the same
// model, min over repeats.
func timeBFS(m *equiv.Model, reps int) (float64, int) {
	best, states := 0.0, 0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		res, err := m.Explore(context.Background(), equiv.ExploreOptions{})
		if err != nil {
			return 0, 0
		}
		states = res.States
		if d := float64(time.Since(t0)) / float64(time.Microsecond); i == 0 || d < best {
			best = d
		}
	}
	return best, states
}

// sstaWorst returns the 3σ quantile of the slowest region's logic
// distribution (0 when SSTA cannot run on the design).
func sstaWorst(f *expt.Flow) float64 {
	rows, err := expt.SSTAMatching(f)
	if err != nil {
		return 0
	}
	worst := 0.0
	for _, r := range rows {
		if q := r.Logic.Quantile(3); q > worst {
			worst = q
		}
	}
	return worst
}

// add appends the cross-check row of a converted case study: the verdicts
// and period bound of the flow's static gate, and both engines timed over
// one shared extraction of the flow's control network. It returns the
// extraction.
func (t *Table) add(f *expt.Flow, simNs float64, reps int) (*equiv.Model, error) {
	top, cn, rep := f.Design.Top, f.Result.Network, f.Static
	m, err := equiv.FromNetwork(top, cn)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Spec, err)
	}
	r := Row{
		Design: f.Spec, Regions: rep.Regions, Places: rep.PlaceCount,
		Transitions: rep.Transitions,
		Live:        rep.Live, Safe: rep.Safe,
		StaticNs: rep.PeriodNs, SimNs: simNs,
		SSTANs: sstaWorst(f),
	}
	r.StaticUS = timeStatic(top, cn, m, reps)
	r.BFSUS, r.BFSStates = timeBFS(m, reps)
	if r.StaticUS > 0 {
		r.Speedup = r.BFSUS / r.StaticUS
	}
	t.Rows = append(t.Rows, r)
	t.Gates = append(t.Gates, f.RenderGates())
	return m, nil
}

// Options sizes the experiment.
type Options struct {
	// Reps is the number of timing repetitions (min is reported); 0 means 5.
	Reps int
	// SimCycles bounds the DLX measurement run; 0 means 400.
	SimCycles int
	// FIRSamples bounds the FIR measurement run; 0 means 120.
	FIRSamples int
	// SkipARM drops the ARM row (its flow build dominates wall-clock).
	SkipARM bool
}

// Run executes the full cross-check: DLX, ARM and FIR flows, a simulator
// measurement where a testbench exists, SSTA over each desynchronized
// design, both analysis engines timed over the same extraction, and the
// unreduced DLX exploration as the exhaustive baseline.
func Run(opts Options) (*Table, error) {
	reps := opts.Reps
	if reps <= 0 {
		reps = 5
	}
	cycles := opts.SimCycles
	if cycles <= 0 {
		cycles = 400
	}
	samples := opts.FIRSamples
	if samples <= 0 {
		samples = 120
	}
	t := &Table{}

	// DLX: full flow, measured period, plus the unreduced baseline.
	dlx, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		return nil, err
	}
	mr, err := expt.MeasureDDLX(dlx, netlist.Worst, 1.0, -1, cycles)
	if err != nil {
		return nil, err
	}
	m, err := t.add(dlx, mr.EffectivePeriod, reps)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	full, err := m.Explore(context.Background(), equiv.ExploreOptions{NoReduce: true})
	if err != nil {
		return nil, err
	}
	t.DLXFull = FullBFS{
		US:        float64(time.Since(t0)) / float64(time.Microsecond),
		States:    full.States,
		MaxStates: full.MaxStates,
		Truncated: full.Truncated,
	}

	// ARM: area-only case study — no simulation testbench, so the sim
	// column stays empty; the static and BFS verdicts still cross-check.
	if !opts.SkipARM {
		arm, err := expt.RunFlow("arm", expt.FlowConfig{})
		if err != nil {
			return nil, err
		}
		if _, err := t.add(arm, 0, reps); err != nil {
			return nil, err
		}
	}

	// FIR: boundary-handshake case study with a streaming testbench.
	fir, err := expt.RunFlow("fir", expt.FlowConfig{})
	if err != nil {
		return nil, err
	}
	fr, err := expt.MeasureDFIR(fir, netlist.Worst, samples)
	if err != nil {
		return nil, err
	}
	if _, err := t.add(fir, fr.EffectivePeriod, reps); err != nil {
		return nil, err
	}
	return t, nil
}

// Render writes the cross-check as the EXPERIMENTS.md-style table.
func Render(w io.Writer, t *Table) {
	fmt.Fprintf(w, "static marked-graph analysis vs simulation vs BFS (single core, min over repeats)\n\n")
	fmt.Fprintf(w, "%-6s %7s %7s %6s %6s  %10s %10s %10s  %10s %10s %9s %9s\n",
		"design", "regions", "places", "live", "safe",
		"static ns", "sim ns", "ssta3σ ns", "static µs", "bfs µs", "states", "speedup")
	for _, r := range t.Rows {
		sim := "—"
		if r.SimNs > 0 {
			sim = fmt.Sprintf("%.4f", r.SimNs)
		}
		fmt.Fprintf(w, "%-6s %7d %7d %6v %6v  %10.4f %10s %10.4f  %10.1f %10.1f %9d %8.1fx\n",
			r.Design, r.Regions, r.Places, r.Live, r.Safe,
			r.StaticNs, sim, r.SSTANs,
			r.StaticUS, r.BFSUS, r.BFSStates, r.Speedup)
	}
	for _, g := range t.Gates {
		io.WriteString(w, g)
	}
	f := t.DLXFull
	if f.US > 0 {
		verdict := "complete"
		if f.Truncated {
			verdict = fmt.Sprintf("TRUNCATED at %d markings — no verdict", f.MaxStates)
		}
		speedup := 0.0
		if len(t.Rows) > 0 && t.Rows[0].StaticUS > 0 {
			speedup = f.US / t.Rows[0].StaticUS
		}
		fmt.Fprintf(w, "\ndlx, full interleaving (no partial-order reduction): %d states in %.0f µs (%s); static speedup %.0fx\n",
			f.States, f.US, verdict, speedup)
	}
	fmt.Fprintf(w, "\nThe static period bound is an upper bound on the simulated steady-state\nperiod; the SSTA column is the slowest region's 3σ logic-path delay, a\nlower bound that excludes handshake overhead. Timings are single-core\nminima over repeated runs of each engine on one shared model extraction.\n")
}
