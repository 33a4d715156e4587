package expt

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// ScaleRow is one row of the netlist-core scaling table: wall-clock times
// for every stage the million-gate representation must keep near-linear.
type ScaleRow struct {
	Target int // requested instance count
	Insts  int // generated instance count
	Nets   int
	// Core netlist operations on the synchronous design.
	Build, Export, Import, Hash, Validate time.Duration
	// Desynchronization stages, keyed by the core.Stage* names, measured
	// from the flow's own progress boundaries.
	Stages map[string]time.Duration
	Flow   time.Duration // whole Convert call
	Derive time.Duration // ctrlnet.DeriveFresh on the desynchronized top
}

// ScalePipelineCfg shapes a pipeline configuration that generates close to
// the target instance count: width 64, regions one per stage, mix rounds.
func ScalePipelineCfg(target int) designs.PipelineCfg {
	cfg := designs.PipelineCfg{Width: 64, Seed: 1, Kind: "mix", Fanout: "balanced"}
	cfg.Depth = target / (cfg.Width * 4)
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	return cfg
}

// ScalePipeline measures the scaling row for one target size: generator
// build, Verilog export, re-import of the exported text, ContentHash and
// Validate on the synchronous design, then the desynchronization flow
// (per-stage from its progress boundaries) and a fresh control-network
// derivation on the result.
func ScalePipeline(ctx context.Context, target int) (*ScaleRow, error) {
	cfg := ScalePipelineCfg(target)
	row := &ScaleRow{Target: target, Stages: map[string]time.Duration{}}

	t0 := time.Now()
	d, err := designs.BuildPipeline(stdcells.New(stdcells.HighSpeed), cfg)
	if err != nil {
		return nil, err
	}
	row.Build = time.Since(t0)
	row.Insts = len(d.Top.Insts)
	row.Nets = len(d.Top.Nets)

	t0 = time.Now()
	src := verilog.Write(d)
	row.Export = time.Since(t0)

	t0 = time.Now()
	if _, err := verilog.Read(src, d.Lib, d.Top.Name); err != nil {
		return nil, fmt.Errorf("re-import: %w", err)
	}
	row.Import = time.Since(t0)

	t0 = time.Now()
	d.Top.ContentHash()
	row.Hash = time.Since(t0)

	t0 = time.Now()
	if errs := d.Top.Validate(netlist.ValidateOptions{}); len(errs) > 0 {
		return nil, fmt.Errorf("validate: %v", errs[0])
	}
	row.Validate = time.Since(t0)

	// Convert with per-stage timing from the progress boundaries:
	// each callback closes the previous stage and opens the next.
	last, lastStage := time.Now(), ""
	t0 = last
	res, err := core.Convert(ctx, d, core.Options{
		Period:       2.0,
		ManualGroups: true,
		Progress: func(stage string) {
			now := time.Now()
			if lastStage != "" {
				row.Stages[lastStage] += now.Sub(last)
			}
			last, lastStage = now, stage
		},
	})
	if err != nil {
		return nil, err
	}
	if lastStage != "" {
		row.Stages[lastStage] += time.Since(last)
	}
	row.Flow = time.Since(t0)

	t0 = time.Now()
	ctrlnet.DeriveFresh(d.Top)
	row.Derive = time.Since(t0)
	_ = res
	return row, nil
}

// RenderScaleTable measures every target size and renders the table the
// scaling experiment records in EXPERIMENTS.md.
func RenderScaleTable(ctx context.Context, w io.Writer, targets []int) error {
	fmt.Fprintf(w, "%10s %10s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n",
		"insts", "nets", "build", "export", "import", "hash", "validate",
		"ffsub", "size", "insert", "derive", "flow")
	for _, target := range targets {
		row, err := ScalePipeline(ctx, target)
		if err != nil {
			return fmt.Errorf("scale %d: %w", target, err)
		}
		fmt.Fprintf(w, "%10d %10d %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n",
			row.Insts, row.Nets,
			round(row.Build), round(row.Export), round(row.Import),
			round(row.Hash), round(row.Validate),
			round(row.Stages[core.StageSubstitute]), round(row.Stages[core.StageSize]),
			round(row.Stages[core.StageGenerate]), round(row.Derive), round(row.Flow))
	}
	return nil
}

func round(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1e3)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// SortedStageNames returns the measured stage names in flow order where
// known, for debugging dumps.
func (r *ScaleRow) SortedStageNames() []string {
	names := make([]string, 0, len(r.Stages))
	for s := range r.Stages {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}
