package core

import (
	"context"
	"fmt"

	"desync/internal/ctrlnet"
)

func init() { RegisterBackend(desyncBackend{}) }

// desyncBackend is the paper's transformation behind the Backend seam: the
// master/slave latch substitution, matched delay-element sizing from the
// per-region STA budgets, handshake controller-network insertion, and the
// ctrlnet claim-versus-derivation cross-check.
type desyncBackend struct{}

func (desyncBackend) Name() string { return BackendDesync }

// Canonicalize defaults the mode to matched delay elements.
func (desyncBackend) Canonicalize(o Options) (Options, error) {
	switch o.Mode {
	case "":
		o.Mode = ModeMatched
	case ModeMatched, ModeCompletion:
	default:
		return o, fmt.Errorf("unknown desync mode %q (want %q or %q)",
			o.Mode, ModeMatched, ModeCompletion)
	}
	return o, nil
}

func (desyncBackend) Substitute(ctx context.Context, f *Flow) error {
	sub, err := SubstituteFlipFlops(f.Design)
	if err != nil {
		return err
	}
	f.Res.Substitution = sub
	return nil
}

func (desyncBackend) Size(ctx context.Context, f *Flow) error {
	f.Res.DDG = BuildDDG(f.Design.Top)
	levels, rds, err := SizeDelayElements(ctx, f.Design, f.Res.DDG, f.Opts.Margin)
	if err != nil {
		return err
	}
	f.Res.DelayLevels = levels
	f.Res.RegionDelays = rds
	f.Res.UnderMargin = underMarginRegions(f.Design.Lib, f.Res.DDG, levels, rds)
	return nil
}

func (desyncBackend) Generate(ctx context.Context, f *Flow) error {
	ins, err := InsertControlNetwork(f.Design, f.Res.DDG, f.Res.Substitution.Enables,
		f.Res.DelayLevels, InsertOptions{
			Margin:              f.Opts.Margin,
			MuxTaps:             f.Opts.MuxTaps,
			Period:              f.Opts.Period,
			CompletionDetection: f.Opts.Mode == ModeCompletion,
		})
	if err != nil {
		return err
	}
	f.Res.Insert = ins
	f.Res.Constraints = ins.Constraints
	f.Res.Reset = ctrlnet.DesyncReset
	return nil
}

func (desyncBackend) Verify(ctx context.Context, f *Flow) error {
	f.Res.Network = ctrlnet.Derive(f.Design.Top)
	if diff := ctrlnet.Diff(f.Res.Insert.Claim, f.Res.Network); len(diff) > 0 {
		return fmt.Errorf("netlist disagrees with the generate stage's claim: %v (and %d more)",
			diff[0], len(diff)-1)
	}
	return nil
}
