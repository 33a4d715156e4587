// Package sim is an event-driven gate-level logic simulator with
// three-valued logic and per-corner, per-instance delays. It stands in for
// the VerilogXL simulations of §4.8/§5: it verifies flow equivalence
// between a synchronous circuit and its desynchronized version, measures the
// effective period of the self-timed controller network (Fig 5.3/5.4), and
// collects the switching activity that drives power estimation (Fig 5.5).
//
// Delays are taken from the library arcs at the chosen corner, scaled by
// each instance's DelayFactor (intra-die variability) and a global Scale
// (inter-die variability sampled by internal/variability), plus annotated
// wire delays when enabled. Nets follow inertial-delay semantics: a newly
// scheduled transition supersedes a pending one on the same net.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"desync/internal/logic"
	"desync/internal/netlist"
)

// Run limits. DefaultMaxEvents is the documented meaning of a zero
// Config.MaxEvents; callers that need a tighter oscillation budget (fault
// campaigns, unit tests) set the field.
const (
	// DefaultMaxEvents is the oscillation guard when Config.MaxEvents is 0.
	DefaultMaxEvents = 50_000_000
	// maxDiags bounds the watchdog diagnostics recorded per run.
	maxDiags = 64
	// interruptEvery is the Config.Interrupt polling stride in applied
	// events.
	interruptEvery = 4096
)

// Config controls a simulation run.
type Config struct {
	Corner        netlist.Corner
	UseWireDelays bool
	// Scale multiplies every cell delay; 1.0 when zero. It models inter-die
	// (global) variability: the whole chip speeds up or slows down together.
	Scale float64
	// MaxEvents guards against oscillation; 0 means DefaultMaxEvents.
	MaxEvents int64
	// Interrupt, when non-nil, is polled every interruptEvery applied events;
	// a non-nil return aborts Run with that error. It is the hook scenario
	// sweeps use for per-scenario wall-clock deadlines and context
	// cancellation inside long runs — the simulator itself never blocks, so
	// without events there is nothing to interrupt.
	Interrupt func() error
	// DelayFactors overrides instances' DelayFactor by name, for this
	// simulator only. The factors are snapshotted at construction, so
	// campaigns and jitter runs can share one immutable module across
	// concurrent simulators instead of mutating instance state.
	DelayFactors map[string]float64
}

// Simulator executes one flat module.
type Simulator struct {
	M   *netlist.Module
	cfg Config

	netIdx  map[*netlist.Net]int
	nets    []*netlist.Net
	val     []logic.V
	gen     []uint32 // inertial-cancel generation per net
	pendVal []logic.V
	pendOK  []bool

	q      eventHeap
	seq    int64
	now    float64
	events int64

	// forced marks nets pinned by fault injection: gate-driven and stimulus
	// transitions on them are dropped until Release.
	forced []bool
	// actions holds callbacks scheduled via At; events reference them by
	// index+1 in their act field.
	actions []func()

	wd *watchdog

	instState map[*netlist.Inst]*state
	// factors holds the per-instance delay-factor overrides from
	// Config.DelayFactors, resolved to instances at construction; nil when
	// the config has none, so the common path stays a field read.
	factors  map[*netlist.Inst]float64
	monitors map[int][]func(t float64, v logic.V)

	// Captures records, per sequential instance name, the sequence of data
	// values captured (FF: at each effective clock edge; latch: at each
	// closing edge). This is the observable of the flow-equivalence
	// property (§2.1).
	Captures map[string][]logic.V
	// CaptureTimes records when each capture happened, for effective-period
	// measurement.
	CaptureTimes map[string][]float64

	// Toggles counts value changes per net index (activity for power).
	Toggles []int64
}

type state struct {
	prevClk logic.V
	env     map[string]logic.V
}

type event struct {
	t   float64
	seq int64
	net int32
	val logic.V
	gen uint32
	act int32 // index+1 into actions; 0 for net transitions
}

// transportGen marks stimulus events exempt from inertial cancellation.
const transportGen = ^uint32(0)

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// New builds a simulator for a flat module. All nets start at X; tie cells
// assert their constants at time zero.
func New(m *netlist.Module, cfg Config) (*Simulator, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	s := &Simulator{
		M:            m,
		cfg:          cfg,
		netIdx:       make(map[*netlist.Net]int, len(m.Nets)),
		instState:    make(map[*netlist.Inst]*state, len(m.Insts)),
		monitors:     map[int][]func(float64, logic.V){},
		Captures:     map[string][]logic.V{},
		CaptureTimes: map[string][]float64{},
	}
	for i, n := range m.Nets {
		s.netIdx[n] = i
	}
	if len(cfg.DelayFactors) > 0 {
		s.factors = make(map[*netlist.Inst]float64, len(cfg.DelayFactors))
		for name, f := range cfg.DelayFactors {
			if in := m.Inst(name); in != nil {
				s.factors[in] = f
			}
		}
	}
	s.nets = m.Nets
	s.val = make([]logic.V, len(m.Nets))
	s.gen = make([]uint32, len(m.Nets))
	s.pendVal = make([]logic.V, len(m.Nets))
	s.pendOK = make([]bool, len(m.Nets))
	s.Toggles = make([]int64, len(m.Nets))
	for _, in := range m.Insts {
		if in.Sub != nil {
			return nil, fmt.Errorf("sim: module %s not flat (instance %s)", m.Name, in.Name)
		}
		s.instState[in] = &state{prevClk: logic.X, env: map[string]logic.V{}}
		if in.Cell.Kind == netlist.KindTie {
			for out, fn := range in.Cell.Functions {
				if n := in.Conn(out); n != nil {
					s.schedule(n, fn.Eval(nil), 0)
				}
			}
		}
	}
	return s, nil
}

// Now returns the current simulation time in ns.
func (s *Simulator) Now() float64 { return s.now }

// Value returns the current value of the named net.
func (s *Simulator) Value(name string) logic.V {
	n := s.M.Net(name)
	if n == nil {
		return logic.X
	}
	return s.val[s.netIdx[n]]
}

// Vector reads a bit-blasted bus (base[i] nets), LSB first up to width.
func (s *Simulator) Vector(base string, width int) logic.Vector {
	out := make(logic.Vector, width)
	for i := 0; i < width; i++ {
		out[i] = s.Value(fmt.Sprintf("%s[%d]", base, i))
	}
	return out
}

// Drive schedules a primary-input change at an absolute time ≥ now.
func (s *Simulator) Drive(port string, v logic.V, at float64) error {
	p := s.M.Port(port)
	if p == nil || p.Dir != netlist.In {
		return fmt.Errorf("sim: no input port %q", port)
	}
	if at < s.now {
		return fmt.Errorf("sim: drive at %.4f is in the past (now %.4f)", at, s.now)
	}
	// Stimulus uses transport semantics: many future edges may be queued on
	// the same port at once, so they must not cancel one another the way
	// gate-driven (inertial) transitions do.
	idx := s.netIdx[p.Net]
	s.seq++
	heap.Push(&s.q, event{t: at, seq: s.seq, net: int32(idx), val: v, gen: transportGen})
	return nil
}

// Clock schedules a 50%-duty clock on an input port from start until until.
// The clock starts low (so the first rising edge falls at start+period/2),
// giving flip-flops a clean 0→1 edge from the initial X state.
func (s *Simulator) Clock(port string, period, start, until float64) error {
	t := start
	v := logic.L
	for t < until {
		if err := s.Drive(port, v, t); err != nil {
			return err
		}
		v = v.Not()
		t += period / 2
	}
	return nil
}

// OnChange registers a monitor callback on a net.
func (s *Simulator) OnChange(name string, fn func(t float64, v logic.V)) error {
	n := s.M.Net(name)
	if n == nil {
		return fmt.Errorf("sim: no net %q", name)
	}
	idx := s.netIdx[n]
	s.monitors[idx] = append(s.monitors[idx], fn)
	return nil
}

// schedule queues a transition after a relative delay.
func (s *Simulator) schedule(n *netlist.Net, v logic.V, delay float64) {
	s.scheduleAt(n, v, s.now+delay)
}

func (s *Simulator) scheduleAt(n *netlist.Net, v logic.V, at float64) {
	idx := s.netIdx[n]
	// Effective future value: pending transition if any, else current.
	eff := s.val[idx]
	if s.pendOK[idx] {
		eff = s.pendVal[idx]
	}
	if eff == v {
		return
	}
	s.gen[idx]++
	s.pendVal[idx] = v
	s.pendOK[idx] = true
	s.seq++
	heap.Push(&s.q, event{t: at, seq: s.seq, net: int32(idx), val: v, gen: s.gen[idx]})
}

// Run processes events until the queue is empty or time passes until.
func (s *Simulator) Run(until float64) error {
	for s.q.Len() > 0 {
		if s.q[0].t > until {
			s.now = until
			s.endOfRunChecks(until)
			return nil
		}
		e := heap.Pop(&s.q).(event)
		if e.act > 0 {
			s.now = e.t
			s.actions[e.act-1]()
			continue
		}
		idx := int(e.net)
		if e.gen != transportGen {
			if e.gen != s.gen[idx] {
				continue // superseded (inertial cancellation)
			}
			s.pendOK[idx] = false
		}
		s.now = e.t
		if s.forced != nil && s.forced[idx] {
			continue // pinned by fault injection
		}
		if s.val[idx] == e.val {
			continue
		}
		s.events++
		if s.events > s.cfg.MaxEvents {
			return fmt.Errorf("sim: event budget exceeded at t=%.4f (oscillation?)", s.now)
		}
		if s.cfg.Interrupt != nil && s.events%interruptEvery == 0 {
			if err := s.cfg.Interrupt(); err != nil {
				return fmt.Errorf("sim: interrupted at t=%.4f: %w", s.now, err)
			}
		}
		s.applyChange(idx, e.val)
	}
	if !math.IsInf(until, 1) {
		s.now = until
	}
	s.endOfRunChecks(until)
	return nil
}

// applyChange commits a net transition: value, activity counters, watchdog
// bookkeeping, monitors, and sink re-evaluation.
func (s *Simulator) applyChange(idx int, v logic.V) {
	s.val[idx] = v
	s.Toggles[idx]++
	if s.wd != nil {
		s.wd.noteChange(idx, s.now)
	}
	n := s.nets[idx]
	for _, fn := range s.monitors[idx] {
		fn(s.now, v)
	}
	for _, sink := range n.Sinks {
		if sink.Inst != nil {
			s.evaluate(sink.Inst, sink.Pin)
		}
	}
}

// RunUntilQuiescent processes all pending events (no time bound).
func (s *Simulator) RunUntilQuiescent() error { return s.Run(math.Inf(1)) }

// Events reports how many net transitions were applied.
func (s *Simulator) Events() int64 { return s.events }

// delayOf picks the arc delay into outPin for a transition to v, triggered
// by fromPin (falling back to the worst arc into the output), including
// variability scaling and wire delay of the driven net.
func (s *Simulator) delayOf(in *netlist.Inst, fromPin, outPin string, v logic.V) float64 {
	c := in.Cell
	arc := c.Arc(fromPin, outPin)
	var d float64
	if arc != nil {
		if v == logic.H {
			d = arc.Rise.At(s.cfg.Corner)
		} else {
			d = arc.Fall.At(s.cfg.Corner)
		}
	} else {
		// No direct arc (e.g. data pin of an FF): use the worst arc into
		// the output.
		for _, a := range c.Arcs {
			if a.To != outPin {
				continue
			}
			dd := a.Rise.At(s.cfg.Corner)
			if v != logic.H {
				dd = a.Fall.At(s.cfg.Corner)
			}
			if dd > d {
				d = dd
			}
		}
	}
	factor := in.DelayFactor
	if s.factors != nil {
		if f, ok := s.factors[in]; ok {
			factor = f
		}
	}
	if factor == 0 {
		factor = 1
	}
	d *= factor * s.cfg.Scale
	if s.cfg.UseWireDelays {
		if n := in.Conn(outPin); n != nil {
			d += n.Wire.At(s.cfg.Corner)
		}
	}
	return d
}

// buildEnv refreshes the instance's cached input environment.
func (s *Simulator) buildEnv(in *netlist.Inst) map[string]logic.V {
	st := s.instState[in]
	for _, p := range in.Cell.Pins {
		if p.Dir != netlist.In {
			continue
		}
		if n := in.Conn(p.Name); n != nil {
			st.env[p.Name] = s.val[s.netIdx[n]]
		} else {
			st.env[p.Name] = logic.X
		}
	}
	return st.env
}

// evaluate reacts to a change on pin of inst.
func (s *Simulator) evaluate(in *netlist.Inst, pin string) {
	c := in.Cell
	switch c.Kind {
	case netlist.KindComb:
		env := s.buildEnv(in)
		for out, fn := range c.Functions {
			n := in.Conn(out)
			if n == nil {
				continue
			}
			v := fn.Eval(env)
			s.schedule(n, v, s.delayOf(in, pin, out, v))
		}
	case netlist.KindFF:
		s.evalFF(in, pin)
	case netlist.KindLatch:
		s.evalLatch(in, pin)
	case netlist.KindCElem, netlist.KindGC:
		env := s.buildEnv(in)
		var v logic.V
		switch {
		case c.GC.Set.Eval(env) == logic.H:
			v = logic.H
		case c.GC.Reset.Eval(env) == logic.H:
			v = logic.L
		default:
			return // hold
		}
		if n := in.Conn(c.GC.Q); n != nil {
			s.schedule(n, v, s.delayOf(in, pin, c.GC.Q, v))
		}
	case netlist.KindTie:
		// constants never change
	}
}

// asyncState returns the forced output value if an async set/reset is
// active, else X.
func asyncState(spec *netlist.SeqSpec, env map[string]logic.V) logic.V {
	active := func(pin string, low bool) bool {
		v := env[pin]
		if low {
			return v == logic.L
		}
		return v == logic.H
	}
	if spec.AsyncReset != "" && active(spec.AsyncReset, spec.AsyncResetLow) {
		return logic.L
	}
	if spec.AsyncSet != "" && active(spec.AsyncSet, spec.AsyncSetLow) {
		return logic.H
	}
	return logic.X
}

func (s *Simulator) driveQ(in *netlist.Inst, v logic.V, fromPin string) {
	spec := in.Cell.Seq
	if n := in.Conn(spec.Q); n != nil {
		s.schedule(n, v, s.delayOf(in, fromPin, spec.Q, v))
	}
	if spec.QN != "" {
		if n := in.Conn(spec.QN); n != nil {
			s.schedule(n, v.Not(), s.delayOf(in, fromPin, spec.QN, v.Not()))
		}
	}
}

func (s *Simulator) evalFF(in *netlist.Inst, pin string) {
	spec := in.Cell.Seq
	st := s.instState[in]
	env := s.buildEnv(in)

	if forced := asyncState(spec, env); forced != logic.X &&
		(pin == spec.AsyncReset || pin == spec.AsyncSet) {
		s.driveQ(in, forced, pin)
		if pin == spec.ClockPin {
			st.prevClk = env[spec.ClockPin]
		}
		return
	}
	if pin != spec.ClockPin {
		return // data changes wait for the edge
	}
	clk := env[spec.ClockPin]
	rising := st.prevClk == logic.L && clk == logic.H
	st.prevClk = clk
	if !rising {
		return
	}
	if forced := asyncState(spec, env); forced != logic.X {
		s.driveQ(in, forced, pin)
		return
	}
	if spec.ClockGate != "" && env[spec.ClockGate] != logic.H {
		return // gated off: no capture
	}
	v := spec.Next.Eval(env)
	s.record(in, v)
	s.driveQ(in, v, pin)
}

func (s *Simulator) evalLatch(in *netlist.Inst, pin string) {
	spec := in.Cell.Seq
	st := s.instState[in]
	env := s.buildEnv(in)

	if forced := asyncState(spec, env); forced != logic.X {
		s.driveQ(in, forced, pin)
		if pin == spec.ClockPin {
			st.prevClk = env[spec.ClockPin]
		}
		return
	}
	g := env[spec.ClockPin]
	if pin == spec.ClockPin {
		prev := st.prevClk
		st.prevClk = g
		switch {
		case g == logic.H:
			// Opening (or staying open): follow data.
			v := spec.Next.Eval(env)
			s.driveQ(in, v, pin)
		case prev == logic.H && g == logic.L:
			// Closing edge: the data present now is what gets captured.
			if s.wd != nil {
				s.wd.checkSetup(in)
			}
			v := spec.Next.Eval(env)
			s.record(in, v)
			s.driveQ(in, v, pin)
		}
		return
	}
	// Data change while transparent.
	if g == logic.H {
		v := spec.Next.Eval(env)
		s.driveQ(in, v, pin)
	}
}

func (s *Simulator) record(in *netlist.Inst, v logic.V) {
	s.Captures[in.Name] = append(s.Captures[in.Name], v)
	s.CaptureTimes[in.Name] = append(s.CaptureTimes[in.Name], s.now)
	if s.wd != nil && v == logic.X {
		s.wd.noteXCapture(in, s.now)
	}
}

// endOfRunChecks lets the watchdog inspect the state a completed Run leaves
// behind (quiescence/deadlock detection).
func (s *Simulator) endOfRunChecks(until float64) {
	if s.wd != nil {
		s.wd.checkQuiescence(until)
	}
}
