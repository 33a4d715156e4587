package sta

import (
	"context"
	"fmt"
	"math"
	"strings"

	"desync/internal/netlist"
	"desync/internal/par"
)

// Result holds per-node arrival times for a late (max) and early (min)
// analysis, separated by transition.
type Result struct {
	G *Graph
	// Late arrival times to a rising / falling transition; -Inf where
	// unreachable.
	MaxRise, MaxFall []float64
	// Early arrival times; +Inf where unreachable.
	MinRise, MinFall []float64

	predRise, predFall []int32 // predecessor nodes of the late arrivals
}

// Analyze propagates arrival times over the graph. Startpoints launch at
// time zero.
func (g *Graph) Analyze() *Result {
	n := g.NodeCount()
	r := &Result{
		G:       g,
		MaxRise: fill(n, math.Inf(-1)), MaxFall: fill(n, math.Inf(-1)),
		MinRise: fill(n, math.Inf(1)), MinFall: fill(n, math.Inf(1)),
		predRise: fillInt32(n, -1), predFall: fillInt32(n, -1),
	}
	for _, s := range g.starts {
		r.MaxRise[s], r.MaxFall[s] = 0, 0
		r.MinRise[s], r.MinFall[s] = 0, 0
	}
	for _, v := range g.order {
		if math.IsInf(r.MaxRise[v], -1) && math.IsInf(r.MaxFall[v], -1) &&
			math.IsInf(r.MinRise[v], 1) && math.IsInf(r.MinFall[v], 1) {
			continue
		}
		for _, e := range g.out(int(v)) {
			// Late propagation.
			switch e.sense {
			case positiveUnate:
				r.relaxMax(v, e.to, r.MaxRise[v]+e.rise, r.MaxFall[v]+e.fall)
				r.relaxMin(e.to, r.MinRise[v]+e.rise, r.MinFall[v]+e.fall)
			case negativeUnate:
				r.relaxMax(v, e.to, r.MaxFall[v]+e.rise, r.MaxRise[v]+e.fall)
				r.relaxMin(e.to, r.MinFall[v]+e.rise, r.MinRise[v]+e.fall)
			default:
				worst := math.Max(r.MaxRise[v], r.MaxFall[v])
				r.relaxMax(v, e.to, worst+e.rise, worst+e.fall)
				best := math.Min(r.MinRise[v], r.MinFall[v])
				r.relaxMin(e.to, best+e.rise, best+e.fall)
			}
		}
	}
	return r
}

func (r *Result) relaxMax(from, to int32, rise, fall float64) {
	if rise > r.MaxRise[to] {
		r.MaxRise[to] = rise
		r.predRise[to] = from
	}
	if fall > r.MaxFall[to] {
		r.MaxFall[to] = fall
		r.predFall[to] = from
	}
}

func (r *Result) relaxMin(to int32, rise, fall float64) {
	if rise < r.MinRise[to] {
		r.MinRise[to] = rise
	}
	if fall < r.MinFall[to] {
		r.MinFall[to] = fall
	}
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func fillInt32(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// MaxAt returns the late arrival (worst of rise/fall) at a node; -Inf if
// unreachable.
func (r *Result) MaxAt(id int) float64 {
	return math.Max(r.MaxRise[id], r.MaxFall[id])
}

// MinAt returns the early arrival at a node; +Inf if unreachable.
func (r *Result) MinAt(id int) float64 {
	return math.Min(r.MinRise[id], r.MinFall[id])
}

// PathStep is one node of a reported critical path.
type PathStep struct {
	Node    string
	Arrival float64
	Rising  bool
}

// CriticalPath returns the worst late path ending at any endpoint, as a
// start-to-end list of steps.
func (r *Result) CriticalPath() []PathStep {
	bestID, bestT, rising := -1, math.Inf(-1), true
	for _, e := range r.G.ends {
		if r.MaxRise[e] > bestT {
			bestT, bestID, rising = r.MaxRise[e], e, true
		}
		if r.MaxFall[e] > bestT {
			bestT, bestID, rising = r.MaxFall[e], e, false
		}
	}
	if bestID < 0 || math.IsInf(bestT, -1) {
		return nil
	}
	return r.trace(bestID, rising)
}

// trace walks predecessors from an endpoint back to a startpoint.
func (r *Result) trace(id int, rising bool) []PathStep {
	var rev []PathStep
	for id >= 0 && len(rev) < r.G.NodeCount()+1 {
		at := r.MaxRise[id]
		pred := r.predRise[id]
		if !rising {
			at = r.MaxFall[id]
			pred = r.predFall[id]
		}
		rev = append(rev, PathStep{Node: r.G.NodeName(id), Arrival: at, Rising: rising})
		if pred < 0 {
			break
		}
		// The predecessor's launching transition depends on the arc sense;
		// recover it by comparing arrivals (a heuristic trace good enough
		// for reports: prefer the transition whose time matches).
		pid := int(pred)
		id = pid
		// Choose the transition at the predecessor that explains the time.
		rising = r.MaxRise[pid] >= r.MaxFall[pid]
	}
	// Reverse.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// WorstEndpointArrival returns the maximum late arrival over all endpoints:
// the module's critical combinational delay from any startpoint.
func (r *Result) WorstEndpointArrival() float64 {
	worst := math.Inf(-1)
	for _, e := range r.G.ends {
		if t := r.MaxAt(e); t > worst {
			worst = t
		}
	}
	if math.IsInf(worst, -1) {
		return 0
	}
	return worst
}

// PortToPortDelay reports late max and early min delay from an input port
// to an output port; used to characterize delay elements (§3.1.4).
func (r *Result) PortToPortDelay(out string) (min, max float64, err error) {
	id := r.G.PortID(out)
	if id < 0 {
		return 0, 0, fmt.Errorf("sta: no port %q", out)
	}
	return r.MinAt(id), r.MaxAt(id), nil
}

// RegionDelay is the per-region combinational summary used for delay
// element sizing: the worst path arriving at any sequential data input of
// the region, plus that cell's setup and the driving register's
// clock-to-output, i.e. the full launch-to-capture budget the delay element
// must cover.
type RegionDelay struct {
	Group     int
	CombMax   float64 // worst comb path into the region's registers
	CombMin   float64 // fastest such path (hold view)
	ClkToQ    float64 // worst clock/enable-to-output of source registers
	Setup     float64 // worst setup of the region's registers
	WorstPath string  // endpoint of the critical path, for reports
}

// Budget is the total delay a matched delay element must exceed.
func (rd RegionDelay) Budget() float64 { return rd.ClkToQ + rd.CombMax + rd.Setup }

// WorstBudget is the largest launch-to-capture budget over all regions:
// the synchronous clock period the critical region implies (0 when there
// are no regions).
func WorstBudget(rds map[int]*RegionDelay) float64 {
	worst := 0.0
	for _, rd := range rds {
		worst = max(worst, rd.Budget())
	}
	return worst
}

// ClockPeriod is the synchronous clock period a module implies at a
// corner: the worst launch-to-capture budget over all regions, scaled by
// the caller's clock margin. It errors when the module has no budget to
// time (no registers).
func ClockPeriod(ctx context.Context, m *netlist.Module, corner netlist.Corner, opts Options, margin float64) (float64, error) {
	rds, err := RegionDelays(ctx, m, corner, opts)
	if err != nil {
		return 0, err
	}
	p := WorstBudget(rds)
	if p <= 0 {
		return 0, fmt.Errorf("no launch-to-capture budgets found")
	}
	return p * margin, nil
}

// RegionDelays computes, for each group id present in the module, the
// combinational critical path into that group's sequential elements
// (§3.2.5): Build, Analyze, then (*Result).RegionDelays. The analysis runs
// register-bounded (latches opaque), so each region's cloud is measured
// independently as the paper requires.
func RegionDelays(ctx context.Context, m *netlist.Module, corner netlist.Corner, opts Options) (map[int]*RegionDelay, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.Corner = corner
	opts.LatchTransparent = false
	g, err := Build(m, opts)
	if err != nil {
		return nil, err
	}
	return g.Analyze().RegionDelays(ctx)
}

// RegionDelays computes every region's launch-to-capture summary over an
// analysis the caller already holds, so a caller that times the module
// anyway builds one graph per netlist state. The graph must be
// register-bounded (built without LatchTransparent). After the shared
// arrival propagation each region scans only its own registers, which
// makes the extraction embarrassingly parallel: par.Workers() workers,
// identical results at any count, since regions never share a summary and
// each keeps its module instance order.
func (r *Result) RegionDelays(ctx context.Context) (map[int]*RegionDelay, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := r.G
	if g.latchTransparent {
		return nil, fmt.Errorf("sta: region delays need a register-bounded graph, not one built with LatchTransparent")
	}
	m, corner := g.Module, g.Corner

	// Worst clock-to-Q over all sequential cells: the launch cost. Kept
	// global (any region may feed any other).
	var worstC2Q float64
	for _, in := range m.Insts {
		c := in.Cell
		if c == nil || c.Seq == nil {
			continue
		}
		if a := c.Arc(c.Seq.ClockPin, c.Seq.Q); a != nil {
			d := math.Max(a.Rise.At(corner), a.Fall.At(corner))
			if d > worstC2Q {
				worstC2Q = d
			}
		}
	}

	// Partition the sequential instances by region, preserving module
	// instance order within each (ties in the max scans below resolve the
	// same way the old single loop did).
	byGroup := map[int][]*netlist.Inst{}
	var groups []int
	for _, in := range m.Insts {
		if in.Cell == nil || in.Cell.Seq == nil {
			continue
		}
		if _, ok := byGroup[in.Group]; !ok {
			groups = append(groups, in.Group)
		}
		byGroup[in.Group] = append(byGroup[in.Group], in)
	}

	rds, err := par.Map(ctx, groups, func(ctx context.Context, _ int, grp int) (*RegionDelay, error) {
		rd := &RegionDelay{Group: grp, CombMin: math.Inf(1), ClkToQ: worstC2Q}
		for _, in := range byGroup[grp] {
			c := in.Cell
			if s := c.Setup.At(corner); s > rd.Setup {
				rd.Setup = s
			}
			// Data inputs of this register are endpoints of its region's
			// cloud.
			for _, p := range c.Pins {
				if p.Dir != netlist.In || p.Name == c.Seq.ClockPin {
					continue
				}
				id := g.NodeID(in, p.Name)
				if id < 0 {
					continue
				}
				if t := r.MaxAt(id); !math.IsInf(t, -1) && t > rd.CombMax {
					rd.CombMax = t
					rd.WorstPath = g.NodeName(id)
				}
				if t := r.MinAt(id); t < rd.CombMin {
					rd.CombMin = t
				}
			}
		}
		if math.IsInf(rd.CombMin, 1) {
			rd.CombMin = 0
		}
		return rd, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]*RegionDelay, len(rds))
	for _, rd := range rds {
		out[rd.Group] = rd
	}
	return out, nil
}

// SetupViolation describes a failed setup check.
type SetupViolation struct {
	Endpoint string
	Arrival  float64
	Required float64
}

// CheckSetup verifies that every sequential data input meets setup against
// the given cycle budget (period minus clock-to-Q already consumed by the
// launch, handled by the caller). Returns all violations.
func CheckSetup(m *netlist.Module, corner netlist.Corner, period float64, opts Options) ([]SetupViolation, error) {
	opts.Corner = corner
	g, err := Build(m, opts)
	if err != nil {
		return nil, err
	}
	r := g.Analyze()
	var out []SetupViolation
	for _, in := range m.Insts {
		c := in.Cell
		if c == nil || c.Seq == nil {
			continue
		}
		var launch float64
		if a := c.Arc(c.Seq.ClockPin, c.Seq.Q); a != nil {
			launch = math.Max(a.Rise.At(corner), a.Fall.At(corner))
		}
		for _, p := range c.Pins {
			if p.Dir != netlist.In || p.Name == c.Seq.ClockPin || p.Class == netlist.ClassScanEnable {
				continue
			}
			id := g.NodeID(in, p.Name)
			if id < 0 {
				continue
			}
			t := r.MaxAt(id)
			if math.IsInf(t, -1) {
				continue
			}
			required := period - c.Setup.At(corner) - launch
			if t > required {
				out = append(out, SetupViolation{
					Endpoint: g.NodeName(id),
					Arrival:  t,
					Required: required,
				})
			}
		}
	}
	return out, nil
}

// HoldViolation describes a failed hold check: the fastest path into a
// sequential data input beats the cell's hold requirement after the
// capturing edge.
type HoldViolation struct {
	Endpoint string
	Arrival  float64 // earliest data arrival after the launching edge
	Required float64 // hold requirement plus capture skew
}

// CheckHold verifies that every sequential data input keeps its value for
// the hold window after the capture edge: the early (min) arrival from any
// startpoint — launched by the same edge — must exceed the cell's hold
// time plus the given capture skew. For a zero-skew ideal clock, skew is 0;
// latch-based desynchronized designs satisfy hold by construction (§4.5.1
// "hold constraints are automatically satisfied since we have a latch
// design and sufficiently wide pulses"), which this check confirms.
func CheckHold(m *netlist.Module, corner netlist.Corner, skew float64, opts Options) ([]HoldViolation, error) {
	opts.Corner = corner
	g, err := Build(m, opts)
	if err != nil {
		return nil, err
	}
	r := g.Analyze()
	var out []HoldViolation
	for _, in := range m.Insts {
		c := in.Cell
		if c == nil || c.Seq == nil {
			continue
		}
		for _, p := range c.Pins {
			if p.Dir != netlist.In || p.Name == c.Seq.ClockPin || p.Class == netlist.ClassScanEnable {
				continue
			}
			id := g.NodeID(in, p.Name)
			if id < 0 {
				continue
			}
			t := r.MinAt(id)
			if math.IsInf(t, 1) {
				continue
			}
			required := c.Hold.At(corner) + skew
			if t < required {
				out = append(out, HoldViolation{
					Endpoint: g.NodeName(id),
					Arrival:  t,
					Required: required,
				})
			}
		}
	}
	return out, nil
}

// FormatPath renders a critical path report.
func FormatPath(path []PathStep) string {
	var sb strings.Builder
	for _, s := range path {
		dir := "r"
		if !s.Rising {
			dir = "f"
		}
		fmt.Fprintf(&sb, "%-40s %s %8.4f\n", s.Node, dir, s.Arrival)
	}
	return sb.String()
}
