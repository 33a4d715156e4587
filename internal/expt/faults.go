package expt

import (
	"context"
	"fmt"

	"desync/internal/faults"
	"desync/internal/logic"
	"desync/internal/sim"
)

// FaultCampaignConfig sizes the fault-injection campaign. Every
// campaign runs campaignCycles original clock periods and slows
// campaignDelayPerRegion of the most active datapath gates per region by
// campaignDelayFactor.
type FaultCampaignConfig struct {
	// Glitches adds the pulse faults (informative: glitches may escape).
	Glitches bool
}

const (
	// campaignCycles is the campaign run length in original clock periods.
	campaignCycles = 12
	// campaignDelayFactor slows each faulted gate by this multiple, far
	// past the 1.15 sizing margin, so the matched element demonstrably no
	// longer covers the path.
	campaignDelayFactor = 40
	// campaignDelayPerRegion is how many of the most active datapath gates
	// per region get a delay fault.
	campaignDelayPerRegion = 2
)

// NewCampaign arms a fault campaign on a converted design whose reset
// follows the flow's convention (an rstn input plus the inserted
// rst_desync, with delsel[2:0] tied low when present) — every generator
// ParseSpec builds qualifies. The watchdog horizon and quiescence gap scale
// with the design's original clock period; cycles <= 0 runs the campaign's
// default length.
func NewCampaign(ctx context.Context, f *Flow, cycles int) (*faults.Campaign, error) {
	if cycles <= 0 {
		cycles = campaignCycles
	}
	top := f.Design.Top
	stim := func(s *sim.Simulator) error {
		if top.Port("delsel[0]") != nil {
			for i := 0; i < 3; i++ {
				if err := s.Drive(fmt.Sprintf("delsel[%d]", i), logic.L, 0); err != nil {
					return err
				}
			}
		}
		s.Drive("rstn", logic.L, 0)
		s.Drive("rst_desync", logic.H, 0)
		s.Drive("rstn", logic.H, 1)
		return s.Drive("rst_desync", logic.L, 2)
	}
	return faults.NewCampaign(ctx, top, faults.Config{
		Stimulus:      stim,
		Horizon:       2 + f.Period*float64(cycles)*6,
		QuiescenceGap: 8 * f.Period,
	})
}

// RunFaultCampaign injects the configured delay, stuck-at and optional
// glitch faults into a converted design and classifies every one. The
// flow's §2.5/§4.6 robustness claims predict — and the acceptance tests
// require, on the DLX — that every under-margin delay fault and every
// control stuck-at fault is detected.
func RunFaultCampaign(ctx context.Context, f *Flow, cfg FaultCampaignConfig) (*faults.Report, error) {
	c, err := NewCampaign(ctx, f, campaignCycles)
	if err != nil {
		return nil, err
	}
	list := c.DelayFaults(campaignDelayFactor, campaignDelayPerRegion)
	list = append(list, c.ControlStuckFaults()...)
	if cfg.Glitches {
		// Pulses land mid-run, well past the boot transient.
		mid := 2 + f.Period*campaignCycles*3
		list = append(list, c.GlitchFaults(mid, 0.3)...)
	}
	return c.Run(ctx, list)
}
