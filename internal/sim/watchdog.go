package sim

// Runtime guards for desynchronized simulations. The happy-path checks of
// the flow (flow-equivalence comparison, golden-model runs) only say
// something when the run completes and produces data; the watchdog instead
// reports structured diagnostics the moment the handshake network stalls, a
// latch closes on still-settling data, or an unknown value reaches latched
// state — the three ways a broken matched delay or a hazard manifests at
// the gate level (§2.5, §4.6).

import (
	"fmt"
	"math"

	"desync/internal/netlist"
)

// DiagKind classifies a watchdog diagnostic.
type DiagKind string

const (
	// DiagDeadlock: the watched handshake nets stopped cycling long before
	// the run's horizon — the control network has quiesced (liveness loss).
	DiagDeadlock DiagKind = "deadlock"
	// DiagSetup: a latch closed while one of its data inputs had changed
	// within its setup window — the matched delay no longer covers the
	// region's logic.
	DiagSetup DiagKind = "setup-violation"
	// DiagXCapture: a sequential element latched an unknown (X) value after
	// the boot transient — corrupted state is propagating.
	DiagXCapture DiagKind = "x-capture"
)

// Diagnostic is one structured watchdog report: which guard fired, on which
// instance/net, and when.
type Diagnostic struct {
	Kind DiagKind
	// Stage names the reporting guard ("watchdog/<kind>"), keeping the
	// format aligned with the flow's FlowError staging.
	Stage  string
	Inst   string
	Net    string
	Time   float64
	Detail string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: t=%.4f", d.Kind, d.Time)
	if d.Inst != "" {
		s += " inst=" + d.Inst
	}
	if d.Net != "" {
		s += " net=" + d.Net
	}
	if d.Detail != "" {
		s += ": " + d.Detail
	}
	return s
}

// WatchdogConfig enables the runtime guards.
type WatchdogConfig struct {
	// HandshakeNets are nets expected to keep cycling for the whole run
	// (typically the region request nets). Empty disables deadlock
	// detection.
	HandshakeNets []string
	// QuiescenceGap is the maximum tolerated gap (ns) between the last
	// toggle of every handshake net and the run horizon; 0 disables.
	QuiescenceGap float64
	// SetupGuard checks, at every latch closing edge, that no data input
	// changed within the cell's setup window.
	SetupGuard bool
	// XCaptureAfter reports captures of X at times strictly later than this;
	// negative disables the guard (a design boots through X).
	XCaptureAfter float64
}

type watchdog struct {
	cfg     WatchdogConfig
	s       *Simulator
	diags   []Diagnostic
	watched map[int]bool
	// lastToggle tracks watched-net activity; lastChange tracks every net
	// (for the setup guard).
	lastToggle map[int]float64
	lastChange []float64
}

// Watch arms the runtime guards on this simulator. It must be called before
// Run; calling it again replaces the previous configuration and clears
// recorded diagnostics.
func (s *Simulator) Watch(cfg WatchdogConfig) error {
	w := &watchdog{
		cfg:        cfg,
		s:          s,
		watched:    map[int]bool{},
		lastToggle: map[int]float64{},
		lastChange: make([]float64, len(s.nets)),
	}
	for _, name := range cfg.HandshakeNets {
		n := s.M.Net(name)
		if n == nil {
			return fmt.Errorf("sim: watchdog: no net %q", name)
		}
		idx := s.netIdx[n]
		w.watched[idx] = true
		w.lastToggle[idx] = 0
	}
	s.wd = w
	return nil
}

// Diagnostics returns the watchdog reports accumulated so far.
func (s *Simulator) Diagnostics() []Diagnostic {
	if s.wd == nil {
		return nil
	}
	return s.wd.diags
}

func (w *watchdog) report(d Diagnostic) {
	if len(w.diags) < maxDiags {
		d.Stage = "watchdog/" + string(d.Kind)
		w.diags = append(w.diags, d)
	}
}

func (w *watchdog) noteChange(idx int, t float64) {
	w.lastChange[idx] = t
	if w.watched[idx] {
		w.lastToggle[idx] = t
	}
}

// checkSetup runs at a latch closing edge: any data input that changed
// within the cell's setup window means the matched delay element no longer
// covers this path.
func (w *watchdog) checkSetup(in *netlist.Inst) {
	if !w.cfg.SetupGuard {
		return
	}
	setup := in.Cell.Setup.At(w.s.cfg.Corner)
	if setup <= 0 {
		return
	}
	for _, p := range in.Cell.Pins {
		if p.Dir != netlist.In || p.Class != netlist.ClassData {
			continue
		}
		n := in.Conn(p.Name)
		if n == nil {
			continue
		}
		idx := w.s.netIdx[n]
		if age := w.s.now - w.lastChange[idx]; age < setup {
			w.report(Diagnostic{
				Kind: DiagSetup, Inst: in.Name, Net: n.Name, Time: w.s.now,
				Detail: fmt.Sprintf("data changed %.4f ns before closing edge (setup %.4f)", age, setup),
			})
		}
	}
}

func (w *watchdog) noteXCapture(in *netlist.Inst, t float64) {
	if w.cfg.XCaptureAfter < 0 || t <= w.cfg.XCaptureAfter {
		return
	}
	w.report(Diagnostic{
		Kind: DiagXCapture, Inst: in.Name, Time: t,
		Detail: fmt.Sprintf("latched X after boot threshold %.4f ns", w.cfg.XCaptureAfter),
	})
}

// checkQuiescence runs when a Run(until) call completes: if every watched
// handshake net stopped toggling more than QuiescenceGap before the
// horizon, the control network has deadlocked. The stalest net (and its
// driver) is reported.
func (w *watchdog) checkQuiescence(until float64) {
	if w.cfg.QuiescenceGap <= 0 || len(w.watched) == 0 || math.IsInf(until, 1) {
		return
	}
	// Nets that stopped at the same instant tie: the lower net index wins,
	// so the report does not depend on map iteration order.
	stalest, at := -1, math.Inf(1)
	for idx, t := range w.lastToggle {
		if t < at || t == at && idx < stalest {
			stalest, at = idx, t
		}
	}
	if stalest < 0 || until-at <= w.cfg.QuiescenceGap {
		return
	}
	n := w.s.nets[stalest]
	inst := ""
	if n.Driver.Inst != nil {
		inst = n.Driver.Inst.Name
	}
	w.report(Diagnostic{
		Kind: DiagDeadlock, Inst: inst, Net: n.Name, Time: at,
		Detail: fmt.Sprintf("handshake stopped cycling %.4f ns before horizon %.4f", until-at, until),
	})
}
