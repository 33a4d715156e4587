// Package vflow is the verified conversion flow that cmd/drdesync and the
// drserve job server (internal/flowserv) both render, so the same input
// gets the same verdict from either front end. One Run is: a pre-import
// lint gate on each built design; core.Convert with the lint engine hooked
// into every stage boundary; the two fallbacks of §5.3 (no regions → one
// region; a delay element under its budget → margin ×1.15, up to three
// retries); the post-export lint gate; and, for the desync backend only,
// the static marked-graph gate, the optional equiv gate (downgraded past
// mga.StateEstimate) and the optional fault campaign.
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
	// FaultCycles is its run length in clock periods (0: 12) and
	// FaultsPerRegion its delay faults per region (0: 2).
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
		// Pre-import gate: reject structurally broken inputs before the
		// heavy pipeline touches them.
		pre := lint.CheckDesign(d, lint.Options{})
		if err := r.gate(Verdict{Step: GatePreImport, Status: Ran, Reason: "lint clean"}, pre); err != nil {
			return err
		}
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
			rep := lint.Check(d.Top, lint.Options{MidFlow: midFlow})
			if n := rep.Errors(); n > 0 {
				return fmt.Errorf("lint: %d error(s), first: %s", n, rep.Findings[0])
			}
			return nil
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
