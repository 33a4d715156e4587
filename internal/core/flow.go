package core

import (
	"context"
	"fmt"
	"sort"

	"desync/internal/ctrlnet"
	"desync/internal/netlist"
	"desync/internal/sdc"
	"desync/internal/sta"
)

// Flow is the shared state of one conversion run, threaded through the
// stage skeleton and handed to the backend's stage methods. Backends read
// Design/Opts and extend Res; the skeleton owns everything else.
type Flow struct {
	// Design is the netlist under conversion, mutated in place.
	Design *netlist.Design
	// Opts is the canonicalized option set (Options.Canonicalize ran).
	Opts Options
	// Res accumulates the run's results stage by stage.
	Res *Result
}

// Result reports everything a conversion run produced. The first block is
// backend-independent; the second is filled by the desync backend only,
// and other backends publish their network record through BackendResult.
type Result struct {
	// Backend is the name of the backend that ran.
	Backend      string
	CleanedCells int
	Grouping     GroupingResult
	Substitution *SubstituteResult
	RegionDelays map[int]*sta.RegionDelay
	Constraints  *sdc.Constraints
	// Reset is the converted design's reset contract.
	Reset ctrlnet.Reset

	// DDG, DelayLevels, Insert, UnderMargin and Network are desync-backend
	// results; they stay nil/empty under other backends.
	DDG         *DDG
	DelayLevels map[int]int
	Insert      *InsertResult
	// UnderMargin lists regions whose sized delay element does not cover
	// the measured launch-to-capture budget (only possible when the margin
	// is below 1.0). The flow still completes — the ablation studies sweep
	// such margins deliberately — but internal/vflow warns and auto-bumps.
	UnderMargin []int
	// Network is the control-network IR derived from the exported netlist
	// (ctrlnet.Derive); downstream consumers — lint's DS-* rules, the equiv
	// model, fault campaigns — reuse it instead of re-deriving their own.
	Network *ctrlnet.Network

	// BackendResult carries a non-desync backend's own record of what it
	// generated (*twophase.Result for the two-phase backend); nil under
	// the desync backend.
	BackendResult any
}

// Convert runs the clocking conversion selected by opts.Backend on the
// design in place, through the shared stage skeleton:
//
//	Import → Clean → Group → Substitute → Size → Generate → Export
//
// The skeleton owns Import (flatten, false paths, the single-clock check
// of §4.1), Clean (buffer/inverter-pair removal), Group (automatic or
// manual region creation) and Export (netlist checks, the backend's
// structural cross-check, final validation); the backend owns Substitute,
// Size and Generate. The datapath is untouched (§2.1) and the clock
// network is gone in every backend; what replaces it — the handshake
// controller network plus matched delays, or the two-phase non-overlapping
// clock generator — is the backend's choice.
//
// Cancellation is observed at every stage boundary (and inside the sized
// kernels); a canceled flow aborts as a FlowError of the stage it was
// entering, leaving the design in that stage's state. Validate, the
// optional StageCheck gate and Progress run at the same boundaries for
// every backend — the discipline lives here, once.
func Convert(ctx context.Context, d *netlist.Design, opts Options) (*Result, error) {
	name := d.Name
	opts, err := opts.Canonicalize()
	if err != nil {
		return nil, flowErr(StageImport, name, "options", err)
	}
	be, err := NewBackend(opts.Backend)
	if err != nil {
		return nil, flowErr(StageImport, name, "options", err)
	}
	f := &Flow{Design: d, Opts: opts, Res: &Result{Backend: be.Name()}}
	res := f.Res
	progress := opts.Progress
	if progress == nil {
		progress = func(string) {}
	}

	// validate runs the netlist invariant checker after each stage so a
	// stage that corrupts the structure is caught at its own boundary; it
	// is also where a cancellation between stages surfaces.
	validate := func(stage string, midFlow bool) error {
		if err := ctx.Err(); err != nil {
			return flowErr(stage, name, "canceled", err)
		}
		errs := d.Top.Validate(netlist.ValidateOptions{AllowUndriven: midFlow})
		if len(errs) > 0 {
			return flowErr(stage, name, "post-stage validation",
				fmt.Errorf("%v (and %d more)", errs[0], len(errs)-1))
		}
		if opts.StageCheck != nil {
			if err := opts.StageCheck(stage, midFlow); err != nil {
				return flowErr(stage, name, "post-stage lint", err)
			}
		}
		return nil
	}

	if err := ctx.Err(); err != nil {
		return nil, flowErr(StageImport, name, "canceled", err)
	}
	progress(StageImport)

	// Design import finalization: the paper's tool works on a flat view; a
	// two-level netlist flattens with hierarchy-derived groups (§3.2.2).
	if err := d.Flatten(opts.ManualGroups); err != nil {
		return nil, flowErr(StageImport, name, "flatten", err)
	}
	if missing := MarkFalsePaths(d.Top, opts.FalsePaths); len(missing) > 0 {
		return nil, flowErr(StageImport, name, "",
			fmt.Errorf("unknown false-path nets %v", missing))
	}

	// Single-clock designs only (§4.1); multiple clock domains are the
	// paper's future work, and silently merging them would fabricate
	// cross-domain synchronization that the original never had.
	clocks := map[*netlist.Net]bool{}
	for _, in := range d.Top.Insts {
		if in.Cell == nil || in.Cell.Kind != netlist.KindFF {
			continue
		}
		if ck := in.Conn(in.Cell.Seq.ClockPin); ck != nil {
			clocks[ck] = true
		}
	}
	if len(clocks) > 1 {
		var names []string
		for n := range clocks {
			names = append(names, n.Name)
		}
		sort.Strings(names)
		return nil, flowErr(StageImport, name, "",
			fmt.Errorf("%d clock domains (%v); the flow supports single-clock designs (§4.1)",
				len(names), names))
	}
	if err := validate(StageImport, true); err != nil {
		return nil, err
	}

	if !opts.SkipClean {
		progress(StageClean)
		res.CleanedCells = CleanLogic(d.Top)
		if err := validate(StageClean, true); err != nil {
			return nil, err
		}
	}
	progress(StageGroup)
	if opts.ManualGroups {
		for _, in := range d.Top.Insts {
			if in.Group < 0 {
				in.Group = 0
			}
		}
		res.Grouping.Groups = compactGroups(d.Top)
	} else {
		res.Grouping = AutoGroup(d.Top)
	}
	if res.Grouping.Groups == 0 {
		return nil, flowErr(StageGroup, name, "", ErrNoRegions)
	}

	progress(StageSubstitute)
	if err := be.Substitute(ctx, f); err != nil {
		return nil, flowErr(StageSubstitute, name, "", err)
	}
	if err := validate(StageSubstitute, true); err != nil {
		return nil, err
	}

	progress(StageSize)
	if err := be.Size(ctx, f); err != nil {
		return nil, flowErr(StageSize, name, "", err)
	}

	progress(StageGenerate)
	if err := be.Generate(ctx, f); err != nil {
		return nil, flowErr(StageGenerate, name, "clock-replacement network", err)
	}

	progress(StageExport)
	if errs := d.Top.Check(); len(errs) > 0 {
		return nil, flowErr(StageExport, name, "netlist checks",
			fmt.Errorf("%v (and %d more)", errs[0], len(errs)-1))
	}

	// Cross-check what the generate stage claims it built against what the
	// exported netlist structurally contains. The derivation is independent
	// of flow state (names and pin connectivity only), so a disagreement
	// means a stage corrupted the network after generation — a class of bug
	// per-consumer re-derivation used to absorb silently.
	if err := be.Verify(ctx, f); err != nil {
		return nil, flowErr(StageExport, name, "network cross-check", err)
	}

	if err := validate(StageExport, false); err != nil {
		return nil, err
	}
	return res, nil
}
