package faults

// Scenario runs: one campaign fault evaluated at an arbitrary operating
// point (inter-die corner position, per-instance intra-die factors),
// against the same nominal golden reference. Flow equivalence is what
// makes that sound: a correct desynchronized design produces the same
// *sequence* of captured values under any delay assignment (§2.1), so the
// capture-prefix comparison stays valid when the operating point moves —
// only the time axis stretches, and every time-valued knob of the run
// (horizon, quiescence gap, X-capture threshold, glitch placement) scales
// with it.

import (
	"context"
	"fmt"

	"desync/internal/sim"
)

// DeriveSeed mixes an index (a sweep's Monte Carlo chip) into a root seed
// via the SplitMix64 finalizer, so every index gets a statistically
// independent stream and any single draw is reproducible standalone from
// (root seed, index) — no sweep state, no injection order. Mixing the index
// matters: feeding the root seed alone into every draw would give all of
// them the same stream.
func DeriveSeed(root, index int64) int64 {
	z := uint64(root) + 0x9E3779B97F4A7C15*uint64(index+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Scenario is one (operating point, fault) cell of a sweep.
type Scenario struct {
	Fault Fault
	// Scale is the inter-die position: a global delay multiplier applied on
	// top of the campaign's nominal corner (1 or 0 = nominal). The horizon,
	// quiescence gap, X-guard threshold and glitch times scale with it.
	Scale float64
	// DelayFactors overlays per-instance intra-die factors (a Monte Carlo
	// chip draw). A delay fault multiplies into its instance's entry rather
	// than replacing it.
	DelayFactors map[string]float64
	// Interrupt, when non-nil, is polled inside the simulator run
	// (sim.Config.Interrupt): the hook for per-scenario wall-clock deadlines
	// and context cancellation.
	Interrupt func() error
}

// RunScenario injects the scenario's fault at its operating point (the
// nominal one for a zero Scale and no DelayFactors), simulates to the
// campaign horizon and classifies the outcome against the golden run. It
// also measures the run's effective handshake period, normalized back to
// the nominal corner, for streaming aggregation. The design is never
// mutated: delay faults ride a per-sim delay-factor snapshot and forces
// live only inside the simulator, so concurrent scenarios are safe.
func (c *Campaign) RunScenario(ctx context.Context, sc Scenario) (Outcome, error) {
	out := Outcome{Fault: sc.Fault}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	scale := sc.Scale
	if scale == 0 {
		scale = 1
	}

	// Per-instance factors: chip draw first, then the delay fault
	// compounding into whatever base its instance already carries.
	factors := make(map[string]float64, len(sc.DelayFactors)+1)
	for name, f := range sc.DelayFactors {
		factors[name] = f
	}
	f := sc.Fault
	if f.Class == ClassDelay {
		in := c.M.Inst(f.Inst)
		if in == nil {
			return out, fmt.Errorf("faults: no instance %q", f.Inst)
		}
		base, ok := factors[f.Inst]
		if !ok {
			base = in.DelayFactor
			if base == 0 {
				base = 1
			}
		}
		factors[f.Inst] = base * f.Factor
	}
	if len(factors) == 0 {
		factors = nil
	}

	budget := int64(float64(c.goldenEvents)*maxEventsFactor) + eventBudgetHeadroom
	s, err := c.newSim(budget, c.lastGoldenX*scale, factors, scale, sc.Interrupt)
	if err != nil {
		return out, err
	}

	switch f.Class {
	case ClassDelay:
		// Injected via the factor map above.
	case ClassStuckAt:
		if err := s.Force(f.Net, f.Value, f.At*scale); err != nil {
			return out, err
		}
	case ClassGlitch:
		if err := s.Force(f.Net, f.Value, f.At*scale); err != nil {
			return out, err
		}
		if err := s.Release(f.Net, (f.At+f.Width)*scale); err != nil {
			return out, err
		}
	default:
		return out, fmt.Errorf("faults: unknown fault class %q", f.Class)
	}

	runErr := s.Run(c.horizon * scale)
	if sc.Interrupt != nil {
		// An interrupt (deadline, cancellation) is the caller's verdict to
		// make, not a fault detection.
		if err := sc.Interrupt(); err != nil {
			return out, err
		}
	}
	out.Diags = s.Diagnostics()
	out.Period = scenarioPeriod(s, scale)
	c.classify(&out, s, runErr)
	return out, nil
}

// scenarioPeriod estimates the run's effective handshake period from its
// busiest capture train (the campaign constructor's estimator, applied to a
// faulted run), normalized back to the nominal corner by the global scale.
// Runs with fewer than three captures report 0.
func scenarioPeriod(s *sim.Simulator, scale float64) float64 {
	busiest := busiestCaptureTrain(s.CaptureTimes)
	n := len(busiest)
	if n < 3 {
		return 0
	}
	return (busiest[n-1] - busiest[1]) / float64(n-2) / scale
}

// busiestCaptureTrain picks the longest capture-time train, breaking length
// ties by instance name: map iteration order must never reach a reported
// number (sweep aggregates diff byte-for-byte across runs).
func busiestCaptureTrain(trains map[string][]float64) []float64 {
	var busiest []float64
	var at string
	for name, times := range trains {
		if len(times) > len(busiest) || (len(times) == len(busiest) && (at == "" || name < at)) {
			busiest, at = times, name
		}
	}
	return busiest
}
