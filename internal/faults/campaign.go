package faults

import (
	"context"
	"fmt"
	"sort"

	"desync/internal/ctrlnet"
	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/par"
	"desync/internal/sim"
)

// Config sets up a campaign against one desynchronized module.
type Config struct {
	// Corner and Scale select the simulation point (as sim.Config).
	Corner netlist.Corner
	Scale  float64
	// Stimulus drives the primary inputs of a fresh simulator (reset
	// sequencing, tap selection). It runs before any fault is applied.
	Stimulus func(s *sim.Simulator) error
	// Horizon bounds every run (ns).
	Horizon float64
	// QuiescenceGap arms the deadlock watchdog: the handshake nets must not
	// stop cycling more than this long (ns) before the horizon.
	QuiescenceGap float64
	// SetupGuard arms the latch setup monitor.
	SetupGuard bool
	// LivenessFraction classifies a register as stalled when it captures
	// fewer than this fraction of the unfaulted run's captures; 0 means 0.5.
	LivenessFraction float64
	// MaxEventsFactor bounds faulted runs at this multiple of the unfaulted
	// run's event count (oscillating faults abort instead of spinning);
	// 0 means 4.
	MaxEventsFactor float64
	// Parallelism bounds the worker count when Run fans the faults out;
	// 0 means GOMAXPROCS. The report is identical at any value: every
	// fault gets its own simulator (delay faults ride a per-sim factor
	// snapshot, never instance state), classification is pure, and the
	// outcomes merge in fault order.
	Parallelism int
	// Seed roots the campaign's randomization. Each faulted run mixes its
	// fault index into it (DeriveSeed), so runs draw independent streams and
	// any single fault reproduces standalone from (Seed, index); 0 is a
	// valid root (recorded as such).
	Seed int64
	// Jitter, when positive, perturbs every non-faulted instance's delay by
	// a uniform factor in [1-Jitter, 1+Jitter] per faulted run (seeded as
	// above): the campaign then also samples whether detection survives
	// benign delay variation instead of only the nominal interleaving.
	// 0 disables.
	Jitter float64
}

// eventBudgetHeadroom pads the faulted runs' event budget above the
// golden-run multiple, so short golden runs still leave room for a fault's
// extra switching before the oscillation guard trips.
const eventBudgetHeadroom = 100_000

// Campaign holds the design under test and the golden (unfaulted) reference
// run every faulted run is classified against.
type Campaign struct {
	M   *netlist.Module
	cfg Config

	// Golden-run observables.
	goldenCaptures map[string][]logic.V
	goldenEvents   int64
	netToggles     map[string]int64
	// lastGoldenX is when the boot transient's last X capture happened; the
	// faulted runs' X guard opens just after it.
	lastGoldenX float64
	// effPeriod estimates the design's effective handshake period from the
	// golden capture cadence; delay-fault factors are scaled against it.
	effPeriod float64

	cn        *ctrlnet.Network
	handshake []string
	regions   []int
}

// NewCampaign discovers the design's regions and handshake nets, then runs
// the unfaulted reference simulation with every watchdog armed. A clean
// design must produce zero diagnostics — anything else is a config or flow
// bug, reported as an error here rather than silently polluting every
// classification after it. After construction the module is treated as
// read-only: faulted runs never mutate it, so Run can fan them out.
func NewCampaign(ctx context.Context, m *netlist.Module, cfg Config) (*Campaign, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Stimulus == nil {
		return nil, fmt.Errorf("faults: config needs a Stimulus function")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("faults: config needs a positive Horizon")
	}
	if cfg.LivenessFraction == 0 {
		cfg.LivenessFraction = 0.5
	}
	if cfg.MaxEventsFactor == 0 {
		cfg.MaxEventsFactor = 4
	}
	c := &Campaign{M: m, cfg: cfg, cn: ctrlnet.Derive(m)}

	if c.cn.Empty() {
		return nil, fmt.Errorf("faults: module %s has no desynchronized regions", m.Name)
	}
	c.regions = append(c.regions, c.cn.Regions...)
	for _, g := range c.regions {
		for _, suffix := range []string{"mri", "sri"} {
			if n := c.cn.ControlNet(g, suffix); n != nil {
				c.handshake = append(c.handshake, n.Name)
			}
		}
	}
	if len(c.handshake) == 0 {
		return nil, fmt.Errorf("faults: module %s has no handshake nets (not desynchronized?)", m.Name)
	}

	// Golden run: X guard off (the design boots through X), everything else
	// armed.
	s, err := c.newSim(0, -1, nil)
	if err != nil {
		return nil, err
	}
	if err := s.Run(cfg.Horizon); err != nil {
		return nil, fmt.Errorf("faults: golden run failed: %w", err)
	}
	if diags := s.Diagnostics(); len(diags) > 0 {
		return nil, fmt.Errorf("faults: golden run tripped the watchdog: %s (and %d more)",
			diags[0], len(diags)-1)
	}
	c.goldenCaptures = s.Captures
	c.goldenEvents = s.Events()
	c.netToggles = make(map[string]int64, len(m.Nets))
	for i, n := range m.Nets {
		c.netToggles[n.Name] = s.Toggles[i]
	}
	for name, vals := range s.Captures {
		for k, v := range vals {
			if v == logic.X && s.CaptureTimes[name][k] > c.lastGoldenX {
				c.lastGoldenX = s.CaptureTimes[name][k]
			}
		}
	}
	busiest := busiestCaptureTrain(s.CaptureTimes)
	if n := len(busiest); n >= 3 {
		// Skip the first interval: the boot handshake is not steady-state.
		c.effPeriod = (busiest[n-1] - busiest[1]) / float64(n-2)
	} else {
		c.effPeriod = cfg.Horizon / 4
	}
	if len(c.goldenCaptures) == 0 {
		return nil, fmt.Errorf("faults: golden run captured nothing (bad stimulus or horizon?)")
	}
	return c, nil
}

// Regions lists the desynchronized region ids of the design under test.
func (c *Campaign) Regions() []int { return append([]int(nil), c.regions...) }

// GoldenEvents reports the unfaulted run's event count (the budget base).
func (c *Campaign) GoldenEvents() int64 { return c.goldenEvents }

// newSim builds a stimulated simulator with the watchdog armed.
// xAfter < 0 disables the X-capture guard (golden run); maxEvents 0 keeps
// the simulator default; factors are per-sim delay-factor overrides
// (delay-fault injection without touching the shared module).
func (c *Campaign) newSim(maxEvents int64, xAfter float64, factors map[string]float64) (*sim.Simulator, error) {
	return c.newScenarioSim(maxEvents, xAfter, factors, 1, nil)
}

// newScenarioSim is newSim at an arbitrary operating point: the global
// scale multiplies the campaign corner's scale (and the quiescence gap, so
// the deadlock verdict tracks the stretched time axis), and interrupt is
// polled inside Run for deadlines and cancellation.
func (c *Campaign) newScenarioSim(maxEvents int64, xAfter float64, factors map[string]float64, scale float64, interrupt func() error) (*sim.Simulator, error) {
	base := c.cfg.Scale
	if base == 0 {
		base = 1
	}
	s, err := sim.New(c.M, sim.Config{
		Corner: c.cfg.Corner, Scale: base * scale, MaxEvents: maxEvents,
		DelayFactors: factors, Interrupt: interrupt,
	})
	if err != nil {
		return nil, err
	}
	if err := s.Watch(sim.WatchdogConfig{
		HandshakeNets: c.handshake,
		QuiescenceGap: c.cfg.QuiescenceGap * scale,
		SetupGuard:    c.cfg.SetupGuard,
		XCaptureAfter: xAfter,
	}); err != nil {
		return nil, err
	}
	if err := c.cfg.Stimulus(s); err != nil {
		return nil, err
	}
	return s, nil
}

// classify fills Detected/By/Detail, strongest evidence first: a corrupted
// capture sequence beats a stall, a stall beats a watchdog report, and a
// simulator abort (event budget — oscillation) catches the rest.
func (c *Campaign) classify(out *Outcome, s *sim.Simulator, runErr error) {
	names := make([]string, 0, len(c.goldenCaptures))
	for name := range c.goldenCaptures {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		want, got := c.goldenCaptures[name], s.Captures[name]
		n := len(want)
		if len(got) < n {
			n = len(got)
		}
		for k := 0; k < n; k++ {
			if got[k] != want[k] {
				out.Detected, out.By = true, ByFlowMismatch
				out.Detail = fmt.Sprintf("%s capture %d: golden %v, faulted %v", name, k, want[k], got[k])
				return
			}
		}
	}
	for _, name := range names {
		want := len(c.goldenCaptures[name])
		if want < 2 {
			continue
		}
		if got := len(s.Captures[name]); float64(got) < c.cfg.LivenessFraction*float64(want) {
			out.Detected, out.By = true, ByLiveness
			out.Detail = fmt.Sprintf("%s captured %d of %d golden values", name, got, want)
			return
		}
	}
	if len(out.Diags) > 0 {
		out.Detected, out.By = true, ByWatchdog
		out.Detail = out.Diags[0].String()
		return
	}
	if runErr != nil {
		out.Detected, out.By = true, BySimError
		out.Detail = runErr.Error()
		return
	}
	out.By = NotDetected
}

// Run injects every fault — fanned out over cfg.Parallelism workers, one
// simulator per fault — and aggregates the outcomes in fault order, so the
// report is byte-identical at any worker count. The first failing fault
// (lowest index) aborts the campaign, as the serial loop did. Each run's
// randomization (Config.Jitter) mixes the fault's index into Config.Seed,
// so the streams are independent and each reproduces standalone.
func (c *Campaign) Run(ctx context.Context, faults []Fault) (*Report, error) {
	outs, err := par.Map(ctx, c.cfg.Parallelism, faults, func(ctx context.Context, i int, f Fault) (Outcome, error) {
		o, err := c.RunScenario(ctx, Scenario{Fault: f, Index: int64(i)})
		if err != nil {
			return o, fmt.Errorf("faults: %s: %w", f, err)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{Outcomes: outs}, nil
}

// DelayFaults enumerates per-instance delay faults: for each region, up to
// perRegion datapath gates that directly drive a latch data pin whose
// golden captures contain known values (the most active such gates first).
// Each gate's factor is at least the given one, raised when needed so the
// inflated delay spans several effective periods — the fault is then
// provably under-margin (the matched element cannot cover it), which is
// the class the flow promises to survive detection of. A short-path gate
// slowed by a small constant factor can still fit inside the region's
// slack and the latch transparency window; such a "fault" is not a fault,
// and enumerating it would only measure the test's own optimism.
func (c *Campaign) DelayFaults(factor float64, perRegion int) []Fault {
	type cand struct {
		name    string
		factor  float64
		toggles int64
	}
	drivesObservedLatch := func(in *netlist.Inst) bool {
		for _, p := range in.Cell.Pins {
			if p.Dir != netlist.Out {
				continue
			}
			n := in.Conn(p.Name)
			if n == nil {
				continue
			}
			for _, sk := range n.Sinks {
				if sk.Inst == nil || sk.Inst.Cell == nil || sk.Inst.Cell.Kind != netlist.KindLatch {
					continue
				}
				pin := sk.Inst.Cell.Pin(sk.Pin)
				if pin == nil || pin.Class != netlist.ClassData {
					continue
				}
				for _, v := range c.goldenCaptures[sk.Inst.Name] {
					if v != logic.X {
						return true
					}
				}
			}
		}
		return false
	}
	worstArc := func(cell *netlist.CellDef) float64 {
		d := 0.0
		for _, a := range cell.Arcs {
			if r := a.Rise.At(c.cfg.Corner); r > d {
				d = r
			}
			if fa := a.Fall.At(c.cfg.Corner); fa > d {
				d = fa
			}
		}
		return d
	}
	byRegion := map[int][]cand{}
	for _, in := range c.M.Insts {
		if in.Group <= 0 || in.Origin != "" || in.Cell == nil || in.Cell.Kind != netlist.KindComb {
			continue
		}
		base := worstArc(in.Cell)
		if base <= 0 || !drivesObservedLatch(in) {
			continue
		}
		var t int64
		for _, p := range in.Cell.Pins {
			if p.Dir != netlist.Out {
				continue
			}
			if n := in.Conn(p.Name); n != nil {
				t += c.netToggles[n.Name]
			}
		}
		if t == 0 {
			continue // never switched in the golden run: no observable path
		}
		f := factor
		if min := 3 * c.effPeriod / base; f < min {
			f = min
		}
		byRegion[in.Group] = append(byRegion[in.Group], cand{in.Name, f, t})
	}
	var out []Fault
	for _, g := range c.regions {
		cands := byRegion[g]
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].toggles != cands[j].toggles {
				return cands[i].toggles > cands[j].toggles
			}
			return cands[i].name < cands[j].name
		})
		for i := 0; i < perRegion && i < len(cands); i++ {
			out = append(out, Fault{Class: ClassDelay, Inst: cands[i].name, Factor: cands[i].factor})
		}
	}
	return out
}

// ControlStuckFaults enumerates stuck-at-0/1 faults on the regions' control
// nets. With no suffixes given it covers the master request, slave
// acknowledge and both latch-enable nets of every region; pass explicit
// suffixes (mri, mai, mro, sri, sai, sro, gm, gs) to widen or narrow.
func (c *Campaign) ControlStuckFaults(suffixes ...string) []Fault {
	if len(suffixes) == 0 {
		suffixes = []string{"mri", "sai", "gm", "gs"}
	}
	var out []Fault
	for _, g := range c.regions {
		for _, suffix := range suffixes {
			n := c.cn.ControlNet(g, suffix)
			if n == nil {
				continue
			}
			for _, v := range []logic.V{logic.L, logic.H} {
				out = append(out, Fault{Class: ClassStuckAt, Net: n.Name, Value: v})
			}
		}
	}
	return out
}

// GlitchFaults enumerates one pulse per region and suffix, forced at time
// at for width ns. Glitches are the class that may legitimately escape: a
// pulse that lands while the net already holds that value, or outside the
// controller's sensitive window, is absorbed — which is exactly what a
// campaign is for measuring.
func (c *Campaign) GlitchFaults(at, width float64, suffixes ...string) []Fault {
	if len(suffixes) == 0 {
		suffixes = []string{"mai", "sai"}
	}
	var out []Fault
	for _, g := range c.regions {
		for _, suffix := range suffixes {
			n := c.cn.ControlNet(g, suffix)
			if n == nil {
				continue
			}
			for _, v := range []logic.V{logic.L, logic.H} {
				out = append(out, Fault{Class: ClassGlitch, Net: n.Name, Value: v, At: at, Width: width})
			}
		}
	}
	return out
}
