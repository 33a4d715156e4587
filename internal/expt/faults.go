package expt

import (
	"context"

	"desync/internal/faults"
)

// FaultCampaignConfig sizes the fault-injection campaign. Every
// campaign runs faults.DefaultCycles original clock periods and slows
// faults.DefaultDelayPerRegion of the most active datapath gates per region
// by faults.DelayFactor.
type FaultCampaignConfig struct {
	// Glitches adds the pulse faults (informative: glitches may escape).
	Glitches bool
}

// NewCampaign arms the flow's fault campaign on a converted design, driven
// under its reset contract at its original clock period; cycles <= 0 runs
// the campaign's default length.
func NewCampaign(ctx context.Context, f *Flow, cycles int) (*faults.Campaign, error) {
	return faults.NewCampaign(ctx, f.Design.Top, faults.NewDriver(f.Design.Top, f.Result.Reset, 0, nil).Start, f.Period, cycles)
}

// RunFaultCampaign injects the configured delay, stuck-at and optional
// glitch faults into a converted design and classifies every one. The
// flow's §2.5/§4.6 robustness claims predict — and the acceptance tests
// require, on the DLX — that every under-margin delay fault and every
// control stuck-at fault is detected.
func RunFaultCampaign(ctx context.Context, f *Flow, cfg FaultCampaignConfig) (*faults.Report, error) {
	c, err := NewCampaign(ctx, f, faults.DefaultCycles)
	if err != nil {
		return nil, err
	}
	list := c.DelayFaults(faults.DelayFactor, faults.DefaultDelayPerRegion)
	list = append(list, c.ControlStuckFaults()...)
	if cfg.Glitches {
		// Pulses land mid-run, well past the boot transient.
		mid := 2 + f.Period*faults.DefaultCycles*3
		list = append(list, c.GlitchFaults(mid, 0.3)...)
	}
	return c.Run(ctx, list)
}
