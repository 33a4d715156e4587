package expt

import (
	"context"
	"fmt"
	"strings"
	"time"

	"desync/internal/faults"
	"desync/internal/stdcells"
	"desync/internal/sweep"
)

// SurfaceConfig sizes the DLX robustness-surface sweep — the Fig 5.3/5.4
// measurement extended over the full corner × chip × fault cross-product
// the original paper never ran.
type SurfaceConfig struct {
	// Corners is the number of grid points across [1, CornerSpread]
	// (default 3: best, mid, worst).
	Corners int
	// Chips is the Monte Carlo intra-die population per corner (default 3).
	Chips int
	// Sigma is the per-instance mismatch sigma of each chip (default 0.05).
	Sigma float64
	// Cycles sets each scenario's run length in original clock periods
	// (default 6 — shorter than the campaign's 12: the sweep trades
	// per-scenario depth for cross-product breadth).
	Cycles int
	// DelayFactor / DelayPerRegion / Glitches select the fault matrix
	// (defaults 40 / 2 / off, as in the DLX fault campaign).
	DelayFactor    float64
	DelayPerRegion int
	Glitches       bool
	// Seed roots the Monte Carlo chip draws; every scenario reproduces
	// standalone from (Seed, index).
	Seed int64
	// Checkpoint/Resume/FsyncEvery, ScenarioTimeout and MaxFailures pass
	// through to sweep.Config.
	Checkpoint      string
	Resume          bool
	FsyncEvery      int
	ScenarioTimeout time.Duration
	MaxFailures     int
	// Progress, when non-nil, observes every folded scenario.
	Progress func(done, total int)
}

// RobustnessSurface sweeps the robustness surface of a converted design
// that follows the flow's reset convention: the fault campaign's matrix
// evaluated at every corner-grid point with Monte Carlo mismatch on top.
// Flow equivalence predicts the surface is flat at 100% detection for the
// under-margin and stuck-at classes — the delay-insensitivity claim,
// measured instead of assumed.
func RobustnessSurface(ctx context.Context, f *Flow, cfg SurfaceConfig) (*sweep.Report, error) {
	if cfg.Corners <= 0 {
		cfg.Corners = 3
	}
	if cfg.Chips <= 0 {
		cfg.Chips = 3
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = 0.05
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 6
	}
	if cfg.DelayFactor == 0 {
		cfg.DelayFactor = faults.DelayFactor
	}
	if cfg.DelayPerRegion == 0 {
		cfg.DelayPerRegion = faults.DefaultDelayPerRegion
	}
	c, err := NewCampaign(ctx, f, cfg.Cycles)
	if err != nil {
		return nil, err
	}
	list := c.DelayFaults(cfg.DelayFactor, cfg.DelayPerRegion)
	list = append(list, c.ControlStuckFaults()...)
	if cfg.Glitches {
		mid := 2 + f.Period*float64(cfg.Cycles)*3
		list = append(list, c.GlitchFaults(mid, 0.3)...)
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("expt: fault matrix is empty")
	}
	return sweep.Run(ctx, c, sweep.Config{
		Space: sweep.Space{
			Corners: stdcells.CornerGrid(cfg.Corners),
			Chips:   cfg.Chips,
			Sigma:   cfg.Sigma,
			Faults:  list,
		},
		Seed:            cfg.Seed,
		ScenarioTimeout: cfg.ScenarioTimeout,
		MaxFailures:     cfg.MaxFailures,
		Checkpoint:      cfg.Checkpoint,
		Resume:          cfg.Resume,
		FsyncEvery:      cfg.FsyncEvery,
		Progress:        cfg.Progress,
	})
}

// RenderSurface prints the robustness surface with the SSTA prediction it
// is measured against: the statistical matching verdict says the delay
// elements cover their logic with on-die probability ~1 at every global
// operating point, so the measured detection rate should not degrade
// toward the worst corner.
func RenderSurface(rep *sweep.Report, rows []MatchRow) string {
	var sb strings.Builder
	sb.WriteString(rep.Render())
	if len(rows) > 0 {
		min := rows[0].CoverShared
		for _, r := range rows[1:] {
			if r.CoverShared < min {
				min = r.CoverShared
			}
		}
		fmt.Fprintf(&sb, "  ssta prediction: min on-die element coverage %.1f%% across regions — surface should stay flat\n", 100*min)
	}
	return sb.String()
}
