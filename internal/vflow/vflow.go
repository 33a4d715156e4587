// Package vflow is the verified conversion flow that cmd/drdesync and the
// drserve job server (internal/flowserv) both render, so the same input
// gets the same verdict from either front end. One Run is: a pre-import
// lint gate on each built design; core.Convert with the lint engine hooked
// into every stage boundary; the two fallbacks of §5.3 (no regions → one
// region; a delay element under its budget → margin ×1.15, up to three
// retries); the post-export lint gate; and, for the desync backend only,
// the static marked-graph gate, the optional equiv gate (downgraded past
// mga.StateEstimate; both skipped under completion detection, which the
// marking model does not cover) and the optional fault campaign.
//
// Run returns an Outcome even when a gate fails: the design, the flow
// result and every report produced so far, as values, plus one Verdict per
// gate and the fallbacks that fired.
package vflow

import (
	"context"
	"errors"
	"fmt"

	"desync/internal/core"
	"desync/internal/equiv"
	"desync/internal/faults"
	"desync/internal/lint"
	"desync/internal/mga"
	"desync/internal/netlist"
	_ "desync/internal/twophase" // registers the twophase backend with the core flow
)

// Gate names, as Verdict.Step reports them. A fallback's Step is instead
// the flow stage it degraded: core.StageGroup or core.StageSize.
const (
	GatePreImport = "pre-import"
	GateLint      = "lint"
	GateStatic    = core.StageStatic
	GateEquiv     = core.StageEquiv
	GateFaults    = "faults"
)

// DefaultFaultCycles and DefaultFaultsPerRegion size the fault gate's
// campaign where Options leaves them zero.
const DefaultFaultCycles, DefaultFaultsPerRegion = faults.DefaultCycles, faults.DefaultDelayPerRegion

// Status is how a gate was decided.
type Status string

const (
	Ran        Status = "ran"        // ran and passed
	Failed     Status = "failed"     // ran and failed the run
	Skipped    Status = "skipped"    // not applicable to the backend
	Downgraded Status = "downgraded" // weaker than asked, or a fallback fired
)

// Verdict is one decision of a run: how a gate ended, or a fallback that
// fired instead of failing the run. Reason says what a passing gate
// established, why a gate was skipped, downgraded or failed, or what a
// fallback did; Findings is the lint-form report a gate decided on.
type Verdict struct {
	Step     string       `json:"step"`
	Status   Status       `json:"status"`
	Reason   string       `json:"reason"`
	Findings *lint.Report `json:"-"`
}

// Options configures one verified run. Every knob mirrors a drdesync flag
// or a job-server FlowOptions field.
type Options struct {
	// Flow configures the conversion. Run owns its StageCheck hook (the
	// per-stage lint gate); Progress passes through. Flow.Period also
	// clocks the fault campaign.
	Flow core.Options
	// Equiv runs the exhaustive marked-graph exploration after the static
	// gate; EquivMaxStates bounds it (0: equiv.DefaultMaxStates).
	Equiv          bool
	EquivMaxStates int
	// EquivXval cross-validates the equiv model against that many
	// randomized simulator traces drawn from EquivSeed.
	EquivXval int
	EquivSeed int64
	// Faults runs the delay and control stuck-at fault campaign;
	// FaultCycles is its run length in clock periods (0:
	// DefaultFaultCycles) and FaultsPerRegion its delay faults per region
	// (0: DefaultFaultsPerRegion).
	Faults          bool
	FaultCycles     int
	FaultsPerRegion int
	// OnVerdict, when non-nil, receives every verdict and every fallback
	// as it is decided, on the flow's goroutine.
	OnVerdict func(Verdict)
}

// Outcome is what one Run produced, filled as far as the run got.
type Outcome struct {
	// Design and Result are the converted design and the flow's record of
	// it; both nil when no attempt converted.
	Design *netlist.Design
	Result *core.Result
	// Lint is the post-export lint report.
	Lint *lint.Report
	// Static, Equiv and Faults are the desync-only gate reports; nil when
	// the gate did not run or failed before reporting.
	Static *mga.Report
	Equiv  *equiv.Result
	Faults *faults.Report
	// Verdicts holds the final attempt's gate verdicts, in gate order.
	Verdicts []Verdict
	// Degraded lists the fallbacks that fired, in order.
	Degraded []Verdict
}

// Verdict returns the verdict recorded for a gate; the zero Verdict when
// the gate was never decided.
func (o *Outcome) Verdict(step string) Verdict {
	for _, v := range o.Verdicts {
		if v.Step == step {
			return v
		}
	}
	return Verdict{}
}

// maxMarginRetries bounds the under-margin auto-bump loop.
const maxMarginRetries = 3

// runner threads one run's options through its gates.
type runner struct {
	opts Options
	*Outcome
	// nl is the current attempt's record of its NL-* lint passes.
	nl netlistLint
}

// Run builds, converts and verifies one design. build is called once per
// attempt and must return a fresh design each time, because the flow
// mutates its input in place. Run returns the outcome together with the
// first hard failure, if any.
func Run(ctx context.Context, build func() (*netlist.Design, error), opts Options) (*Outcome, error) {
	if opts.OnVerdict == nil {
		opts.OnVerdict = func(Verdict) {}
	}
	r := &runner{opts: opts, Outcome: &Outcome{}}
	if err := r.convert(ctx, build); err != nil {
		return r.Outcome, err
	}
	return r.Outcome, r.gates(ctx)
}

// convert runs the flow through its two fallbacks:
//
//   - grouping finds no regions → retry as a single region: correct, with
//     coarser concurrency;
//   - a sized delay element under-covers its region (possible only with a
//     margin below 1.0) → retry at the margin bumped 15%, up to
//     maxMarginRetries times, starting from the canonical margin.
//
// Hard failures return the staged FlowError untouched.
func (r *runner) convert(ctx context.Context, build func() (*netlist.Design, error)) error {
	flow := r.opts.Flow
	singleRegion := false
	for attempt := 0; ; attempt++ {
		d, err := build()
		if err != nil {
			return err
		}
		r.Verdicts = nil // each attempt decides its gates afresh
		r.nl = netlistLint{}
		// Pre-import gate: reject structurally broken inputs before the
		// heavy pipeline touches them.
		pre := lint.CheckDesign(d, lint.Options{})
		testLintPass(true)
		if err := r.gate(Verdict{Step: GatePreImport, Status: Ran, Reason: "lint clean"}, pre); err != nil {
			return err
		}
		r.nl.passed(d.Top)
		o := flow
		if singleRegion {
			for _, in := range d.Top.Insts {
				in.Group = 1
			}
			o.ManualGroups = true
		}
		// Per-stage lint: every netlist.Validate boundary also runs the
		// static netlist rules, so a stage that corrupts the structure is
		// caught at its own boundary, not at export.
		o.StageCheck = func(stage string, midFlow bool) error {
			return r.nl.stageCheck(d.Top, stage, midFlow)
		}
		res, err := core.Convert(ctx, d, o)
		switch {
		case err == nil && len(res.UnderMargin) > 0 && attempt < maxMarginRetries:
			canon, _ := flow.Canonicalize() // Convert just accepted these options
			flow.Margin = canon.Margin * 1.15
			r.degrade(core.StageSize, fmt.Sprintf("delay elements under-cover regions %v at margin %.3g; retrying with margin %.3g",
				res.UnderMargin, canon.Margin, flow.Margin))
		case err == nil:
			r.Design, r.Result = d, res
			return nil
		case errors.Is(err, core.ErrNoRegions) && !singleRegion:
			r.degrade(core.StageGroup, fmt.Sprintf("%v; falling back to a single region (§5.3)", err))
			singleRegion = true
		default:
			return err
		}
	}
}

// netlistLint lints each netlist state of one attempt once, and only for
// what the gate reading it needs:
//
//   - the mid-flow boundaries (Import, Clean, Substitute) decide on the
//     error count and the leading finding alone, so they run only the
//     Error rules (lint.CheckNetlistErrors), which leave both unchanged;
//   - a mid-flow boundary whose module is the one the last error-free pass
//     linted, at the same ModSeq, is not linted again: every pass here runs
//     at least the Error rules under mid-flow relaxation, so that pass
//     already decided it (the Import boundary after the pre-import gate,
//     a Clean that removed nothing). Like netlist.Validate's own shortcut,
//     this trusts that edits go through the netlist mutators;
//   - the Export boundary runs the full NL-* family and keeps the report,
//     which the post-export gate merges with the conversion family instead
//     of a second NL-* pass over the same state.
type netlistLint struct {
	clean  lintState    // the last pass without an error finding
	export lintState    // the Export boundary's pass
	nl     *lint.Report // the Export boundary's full NL-* report
}

// lintState names one netlist state: a module at a ModSeq.
type lintState struct {
	m   *netlist.Module
	seq uint64
}

func stateOf(m *netlist.Module) lintState { return lintState{m, m.ModSeq()} }

// passed records that m's current state has no NL-* error.
func (l *netlistLint) passed(m *netlist.Module) { l.clean = stateOf(m) }

// stageCheck is the per-stage gate core.Convert calls at each Validate
// boundary.
func (l *netlistLint) stageCheck(m *netlist.Module, stage string, midFlow bool) error {
	var rep *lint.Report
	switch {
	case stage == core.StageExport:
		rep = lint.Check(m, lint.Options{MidFlow: midFlow})
		testLintPass(true)
		l.export, l.nl = stateOf(m), rep
	case midFlow && l.clean == stateOf(m):
		return nil
	default:
		rep = lint.CheckNetlistErrors(m, midFlow)
		testLintPass(false)
	}
	if n := rep.Errors(); n > 0 {
		return fmt.Errorf("lint: %d error(s), first: %s", n, rep.Findings[0])
	}
	l.passed(m)
	return nil
}

// netlistReport returns the full NL-* report of m's current state: the
// Export boundary's when m has not changed since, else a fresh pass.
func (l *netlistLint) netlistReport(m *netlist.Module) *lint.Report {
	if l.nl != nil && l.export == stateOf(m) {
		return l.nl
	}
	testLintPass(true)
	return lint.Check(m, lint.Options{})
}

// testLintPass is called once per NL-* pass a run makes, with whether the
// pass ran the full family; tests replace it to count them.
var testLintPass = func(full bool) {}

// decide records and reports a gate verdict.
func (r *runner) decide(v Verdict) {
	r.Verdicts = append(r.Verdicts, v)
	r.opts.OnVerdict(v)
}

// degrade records and reports a fallback taken at the given flow stage.
func (r *runner) degrade(stage, reason string) {
	v := Verdict{Step: stage, Status: Downgraded, Reason: reason}
	r.Degraded = append(r.Degraded, v)
	r.opts.OnVerdict(v)
}

// gate decides v from a lint-form report: the gate fails, naming the most
// severe finding, when any Error-severity finding survives.
func (r *runner) gate(v Verdict, rep *lint.Report) error {
	v.Findings = rep
	if n := rep.Errors(); n > 0 {
		return r.fail(v, fmt.Errorf("%s gate: %d error finding(s), first: %s", v.Step, n, rep.Findings[0]))
	}
	r.decide(v)
	return nil
}

// fail decides v as failed with err and returns err.
func (r *runner) fail(v Verdict, err error) error {
	v.Status, v.Reason = Failed, err.Error()
	r.decide(v)
	return err
}
