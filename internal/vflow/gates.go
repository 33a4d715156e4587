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
	"desync/internal/sta"
)

// gates runs the post-export gates over the converted design.
func (r *runner) gates(ctx context.Context) error {
	d, res := r.Design, r.Result
	desync := res.Backend == core.BackendDesync

	// Post-export lint over the final design, cross-checked against the
	// constraints the run generated. The rule family follows the backend:
	// DS-* (reusing the flow's derived control-network IR) after a
	// desynchronization, TP-* after any other conversion.
	lopts := lint.Options{Constraints: res.Constraints}
	if desync {
		lopts.Desync, lopts.Network = true, res.Network
	} else {
		lopts.TwoPhase = true
	}
	// The NL-* half is the Export boundary's report of this same state;
	// merged with the conversion family and sorted, it is lint.Check's.
	r.Lint = lint.CheckConversion(d.Top, lopts)
	r.Lint.Merge(r.nl.netlistReport(d.Top).Findings)
	r.Lint.Sort()
	v := Verdict{Step: GateLint, Status: Ran, Reason: "post-export lint clean"}
	if len(res.UnderMargin) > 0 {
		// The margin retries ran out and the run ships under margin. The
		// DS-MARGIN findings restate that advisory: demote them to
		// warnings so the acknowledged degradation still passes, and sort
		// again so an error left in the report still leads it.
		for i := range r.Lint.Findings {
			if r.Lint.Findings[i].Rule == lint.RuleMargin {
				r.Lint.Findings[i].Severity = lint.Warning
			}
		}
		r.Lint.Sort()
		v = Verdict{Step: GateLint, Status: Downgraded, Reason: fmt.Sprintf(
			"delay elements still under-cover regions %v after %d retries", res.UnderMargin, maxMarginRetries)}
	}
	if err := r.gate(v, r.Lint); err != nil {
		return err
	}

	if !desync {
		// The remaining gates model the handshake control network, which
		// this backend does not insert: say so instead of silently passing.
		why := "the handshake control network; not applicable to the " + res.Backend + " backend"
		r.decide(Verdict{Step: GateStatic, Status: Skipped, Reason: "marked-graph gates model " + why})
		if r.opts.Equiv {
			r.decide(Verdict{Step: GateEquiv, Status: Skipped, Reason: "models " + why})
		}
		if r.opts.Faults {
			r.decide(Verdict{Step: GateFaults, Status: Skipped, Reason: "models " + why})
		}
		return nil
	}

	if r.opts.Flow.Mode == core.ModeCompletion {
		// The marking model covers matched-delay controllers; a completion
		// network's request timing lives in the dual-rail datapath, outside
		// it (DESIGN §10). The fault campaign simulates, so it still runs.
		why := "matched-delay controllers only; " + d.Top.Name + " uses dual-rail completion detection"
		r.decide(Verdict{Step: GateStatic, Status: Skipped, Reason: "marked-graph gates model " + why})
		if r.opts.Equiv {
			r.decide(Verdict{Step: GateEquiv, Status: Skipped, Reason: "models " + why})
		}
		if r.opts.Faults {
			return r.faultsGate(ctx)
		}
		return nil
	}

	model, err := r.staticGate()
	if err != nil {
		return err
	}
	if r.opts.Equiv {
		budget := r.opts.EquivMaxStates
		if budget <= 0 {
			budget = equiv.DefaultMaxStates
		}
		// Past the estimate the BFS cannot finish within its budget: the
		// static verdicts stand alone, and the run says so instead of
		// truncating a search.
		if est := mga.StateEstimate(r.Static.Regions); est > uint64(budget) {
			r.decide(Verdict{Step: GateEquiv, Status: Downgraded, Reason: fmt.Sprintf(
				"state estimate %d exceeds the %d-marking budget; static verdicts stand alone", est, budget)})
		} else if err := r.equivGate(ctx, d, model); err != nil {
			return err
		}
	}
	if r.opts.Faults {
		return r.faultsGate(ctx)
	}
	return nil
}

// staticGate is the always-on structural gate: liveness, place bounds, the
// request-vs-data cross-check and the static period bound of the inserted
// control network's marked graph, in polynomial time. Its report also
// sizes the equiv gate's reach. It returns the control-network model it
// extracted, which the equiv gate explores without extracting it again.
func (r *runner) staticGate() (*equiv.Model, error) {
	d := r.Design
	v := Verdict{Step: GateStatic, Status: Ran, Reason: "liveness, safety and period verdicts clean"}
	m, err := equiv.FromNetwork(d.Top, r.Result.Network)
	if err != nil {
		return nil, stageError(core.StageStatic, d, "static marked-graph gate", r.fail(v, err))
	}
	r.Static = mga.AnalyzeModel(d.Top, r.Result.Network, m, mga.Options{})
	if err := r.gate(v, r.Static.LintReport(r.Static.ModelFindings)); err != nil {
		return nil, stageError(core.StageStatic, d, "static marked-graph gate", err)
	}
	return m, nil
}

// equivGate model-checks the token-marking model of the control network
// for deadlock-freedom, phase safety and flow equivalence, optionally
// cross-validated against randomized simulator traces. A disproved
// property fails the run; the report keeps the counterexample.
func (r *runner) equivGate(ctx context.Context, d *netlist.Design, m *equiv.Model) error {
	v := Verdict{Step: GateEquiv, Status: Ran, Reason: "deadlock-freedom, phase safety and flow equivalence clean"}
	fail := func(err error) error {
		return stageError(core.StageEquiv, d, "formal verification gate", r.fail(v, err))
	}
	res, err := m.Explore(ctx, equiv.ExploreOptions{MaxStates: r.opts.EquivMaxStates})
	if err != nil {
		return fail(err)
	}
	if r.opts.EquivXval > 0 && res.Violation == nil {
		xv, err := m.CrossValidate(ctx, d.Top, equiv.XValConfig{Traces: r.opts.EquivXval, Seed: r.opts.EquivSeed})
		if err != nil {
			return fail(err)
		}
		res.XVal = xv
	}
	r.Equiv = res
	if err := r.gate(v, res.Report(m.Findings)); err != nil {
		return stageError(core.StageEquiv, d, "formal verification gate", err)
	}
	return nil
}

// faultsGate runs the default delay and control stuck-at campaign against
// the converted design. Escapes do not fail the run: the report is the
// product. The campaign is clocked at the run's period, or at the worst
// region budget plus 5% when the run has none.
func (r *runner) faultsGate(ctx context.Context) error {
	d, o := r.Design, r.opts
	v := Verdict{Step: GateFaults, Status: Ran}
	period := o.Flow.Period
	if period <= 0 {
		period = sta.WorstBudget(r.Result.RegionDelays) * 1.05
	}
	if period <= 0 {
		return r.fail(v, errors.New("fault campaign: no period given and no region budget to derive one"))
	}
	perRegion := o.FaultsPerRegion
	if perRegion <= 0 {
		perRegion = faults.DefaultDelayPerRegion
	}
	c, err := faults.NewCampaign(ctx, d.Top, faults.NewDriver(d.Top, r.Result.Reset, 0, nil).Start, period, o.FaultCycles)
	if err != nil {
		return r.fail(v, fmt.Errorf("fault campaign: %w", err))
	}
	list := c.DelayFaults(faults.DelayFactor, perRegion)
	list = append(list, c.ControlStuckFaults()...)
	rep, err := c.Run(ctx, list)
	if err != nil {
		return r.fail(v, fmt.Errorf("fault campaign: %w", err))
	}
	r.Faults = rep
	v.Reason = fmt.Sprintf("campaign ran %d faults", len(list))
	r.decide(v)
	return nil
}

// stageError stages a failure of the static or equiv gate. Those stages run
// after Convert returns, so the skeleton cannot wrap them; minting the
// FlowError here keeps core.StageOf working for the whole run.
func stageError(stage string, d *netlist.Design, detail string, err error) error {
	return &core.FlowError{Stage: stage, Design: d.Top.Name, Detail: detail, Err: err}
}
