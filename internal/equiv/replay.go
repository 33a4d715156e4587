package equiv

import (
	"fmt"

	"desync/internal/ctrlnet"
	"desync/internal/faults"
	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/sim"
)

// A replay runs at the best corner, forces one trace event every
// replayStep ns, and then watches the released network for replayHorizon
// ns.
const (
	replayStep    = 1.5
	replayHorizon = 40
)

// ReplayResult reports how a formal counterexample behaved when its
// interleaving was imposed on the real gate-level simulation.
type ReplayResult struct {
	Steps       int      `json:"steps"`       // trace events forced
	PostEvents  int      `json:"postEvents"`  // latch-enable transitions after release
	Diagnostics []string `json:"diagnostics"` // watchdog reports
	Confirmed   bool     `json:"confirmed"`
	Detail      string   `json:"detail"`
}

// Replay feeds a formal counterexample trace back through the simulator:
// the control nets are forced along the trace's firing order (realizing the
// exact interleaving the model found), then released, and the free-running
// network is watched. A deadlock counterexample is confirmed when the
// control network stays silent; safety and flow counterexamples are
// confirmed when the released network trips a watchdog (deadlock, setup
// violation, X capture) or its per-region capture schedules drift apart —
// the dynamic shadows of a formally broken schedule.
func Replay(mod *netlist.Module, m *Model, tr *Trace) (*ReplayResult, error) {
	if len(tr.Events) == 0 {
		return nil, fmt.Errorf("equiv: trace has no events to replay")
	}
	for _, e := range tr.Events {
		if mod.Net(e.Net) == nil {
			return nil, fmt.Errorf("equiv: trace net %s not in module %s (trace from a different design?)", e.Net, mod.Name)
		}
	}

	s, err := sim.New(mod, sim.Config{})
	if err != nil {
		return nil, err
	}
	if err := faults.NewDriver(mod, ctrlnet.DesyncReset, 0, nil).Start(s); err != nil {
		return nil, err
	}

	// Force the counterexample interleaving, one event per step, starting
	// after the reset sequence has settled.
	const t0 = 4.0
	forced := map[string]bool{}
	for k, e := range tr.Events {
		v := logic.L
		if e.Value {
			v = logic.H
		}
		if err := s.Force(e.Net, v, t0+float64(k)*replayStep); err != nil {
			return nil, err
		}
		forced[e.Net] = true
	}
	end := t0 + float64(len(tr.Events))*replayStep
	for net := range forced {
		if err := s.Release(net, end); err != nil {
			return nil, err
		}
	}

	// Watch the released network: enable activity, per-region capture
	// schedules, and the standard watchdogs.
	var roNets []string
	post := 0
	capCount := map[int]int{}
	for i := range m.sigs {
		sg := &m.sigs[i]
		switch sg.kind {
		case kindRO:
			roNets = append(roNets, sg.name)
		case kindG:
			region, master, name := sg.region, sg.master, sg.name
			if err := s.OnChange(name, func(t float64, v logic.V) {
				if t <= end {
					return
				}
				post++
				if !master && v == logic.L {
					capCount[region]++
				}
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := s.Watch(sim.WatchdogConfig{
		HandshakeNets: roNets,
		QuiescenceGap: replayHorizon / 2,
		SetupGuard:    true,
		XCaptureAfter: t0,
	}); err != nil {
		return nil, err
	}
	if err := s.Run(end + replayHorizon); err != nil {
		return nil, err
	}

	res := &ReplayResult{Steps: len(tr.Events), PostEvents: post}
	for _, d := range s.Diagnostics() {
		res.Diagnostics = append(res.Diagnostics, d.String())
	}
	spread := captureSpread(capCount, m.Regions)
	switch tr.Rule {
	case RuleDeadlock:
		res.Confirmed = post == 0 || hasDiag(s, sim.DiagDeadlock)
		if res.Confirmed {
			res.Detail = fmt.Sprintf("control network silent after replaying the prefix (%d enable transitions in %.0f ns)", post, float64(replayHorizon))
		} else {
			res.Detail = fmt.Sprintf("control network still made %d enable transitions after release", post)
		}
	default:
		res.Confirmed = len(res.Diagnostics) > 0 || spread > 2 || post == 0
		switch {
		case spread > 2:
			res.Detail = fmt.Sprintf("per-region capture schedules drifted %d generations apart after release", spread)
		case len(res.Diagnostics) > 0:
			res.Detail = "watchdog tripped after release: " + res.Diagnostics[0]
		case post == 0:
			res.Detail = "control network deadlocked after replaying the prefix"
		default:
			res.Detail = "released network showed no dynamic divergence in the watch window"
		}
	}
	return res, nil
}

func hasDiag(s *sim.Simulator, kind sim.DiagKind) bool {
	for _, d := range s.Diagnostics() {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// captureSpread measures how far apart the per-region slave capture counts
// ended up; lockstep semi-decoupled rings stay within a couple.
func captureSpread(counts map[int]int, regions []int) int {
	if len(regions) == 0 {
		return 0
	}
	min, max := -1, 0
	for _, g := range regions {
		c := counts[g]
		if min < 0 || c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return max - min
}
