package twophase

import (
	"context"
	"fmt"
	"sort"

	"desync/internal/core"
	"desync/internal/netlist"
	"desync/internal/sta"
)

func init() { core.RegisterBackend(backend{}) }

// backend plugs the two-phase generator into the shared stage skeleton:
// the same flip-flop substitution and grouping as the desync backend, a
// Size stage that parameterizes the ring from the per-region STA budgets,
// a Generate stage that inserts the generator and distribution, and the
// claim-versus-derivation cross-check at export.
type backend struct{}

func (backend) Name() string { return core.BackendTwoPhase }

// Canonicalize rejects modes — the backend has a single strategy — and
// zeroes the desync-only mux-taps knob, which is inert here and would
// otherwise split the job server's cache entries.
func (backend) Canonicalize(o core.Options) (core.Options, error) {
	if o.Mode != "" {
		return o, fmt.Errorf("the twophase backend has no modes (got %q)", o.Mode)
	}
	o.MuxTaps = false
	return o, nil
}

func (backend) Substitute(ctx context.Context, f *core.Flow) error {
	sub, err := core.SubstituteFlipFlops(f.Design)
	if err != nil {
		return err
	}
	f.Res.Substitution = sub
	return nil
}

func (backend) Size(ctx context.Context, f *core.Flow) error {
	rds, err := sta.RegionDelays(ctx, f.Design.Top, netlist.Worst,
		sta.Options{Parallelism: f.Opts.Parallelism})
	if err != nil {
		return err
	}
	f.Res.RegionDelays = rds
	regions := make([]int, 0, len(f.Res.Substitution.Enables))
	for g := range f.Res.Substitution.Enables {
		regions = append(regions, g)
	}
	sort.Ints(regions)
	siz, err := SizeGenerator(f.Design.Lib, regions, rds, f.Opts.Margin, f.Opts.Period)
	if err != nil {
		return err
	}
	f.Res.BackendResult = &Result{Sizing: *siz}
	return nil
}

func (backend) Generate(ctx context.Context, f *core.Flow) error {
	tp, ok := f.Res.BackendResult.(*Result)
	if !ok {
		return fmt.Errorf("twophase: generate ran without a sizing result")
	}
	enables := make(map[int]Enable, len(f.Res.Substitution.Enables))
	for g, en := range f.Res.Substitution.Enables {
		enables[g] = Enable{Master: en.Master, Slave: en.Slave}
	}
	if err := Generate(f.Design, enables, tp); err != nil {
		return err
	}
	f.Res.Constraints = tp.Constraints
	return nil
}

func (backend) Verify(ctx context.Context, f *core.Flow) error {
	tp, ok := f.Res.BackendResult.(*Result)
	if !ok || tp.Claim == nil {
		return fmt.Errorf("twophase: verify ran without a generate claim")
	}
	diffs := Diff(tp.Claim, Derive(f.Design.Top))
	if len(diffs) > 0 {
		return fmt.Errorf("netlist disagrees with the generate stage's claim: %v (and %d more)",
			diffs[0], len(diffs)-1)
	}
	return nil
}
