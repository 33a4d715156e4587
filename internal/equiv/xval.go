package equiv

import (
	"context"
	"fmt"
	"sort"

	"desync/internal/ctrlnet"
	"desync/internal/faults"
	"desync/internal/handshake"
	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/par"
	"desync/internal/sim"
)

// XValConfig sizes the model-vs-simulation cross-validation.
type XValConfig struct {
	Traces int   // randomized runs; 0 disables cross-validation
	Seed   int64 // PRNG seed; trace k uses Seed+k; 0 means 0 (recorded)
}

// Every cross-validation trace runs at the best corner for xvalHorizon ns,
// with each control gate's delay jittered by up to ±xvalSpread.
const (
	xvalSpread  = 0.35
	xvalHorizon = 60
)

// XValResult reports the cross-validation outcome.
type XValResult struct {
	Seed       int64       `json:"seed"`
	Traces     int         `json:"traces"`
	Events     int         `json:"events"` // visible transitions accepted by the model
	Divergence *Divergence `json:"divergence,omitempty"`
}

// Divergence is a simulated transition the model cannot fire from any
// marking consistent with the observed prefix — a counterexample to the
// model/netlist correspondence (or a real circuit hazard under the drawn
// delays).
type Divergence struct {
	TraceIndex int             `json:"trace"`
	Time       float64         `json:"time"`
	Net        string          `json:"net"`
	Value      bool            `json:"value"`
	Observed   []TraceEvent    `json:"observed"` // trailing accepted prefix
	Expected   []string        `json:"expected"` // visible events the model enables
	Marking    map[string]bool `json:"marking,omitempty"`
}

// maxClosure bounds the invisible-transition closure during acceptance.
// The closure frontier is roughly the product of the regions' concurrent
// handshake progress, so it peaks well above the reduced reachable count
// (tens of thousands of markings on the DLX) before a visible event
// collapses it again.
const maxClosure = 1 << 18

type obsEvent struct {
	t   float64
	net string
	v   logic.V
}

// CrossValidate simulates the design cfg.Traces times with seeded random
// delay jitter on the control instances (the network is speed independent,
// so the model must accept every such run), observes the property-relevant
// nets, and checks each observed trace is a firing sequence of the model
// via subset construction over the invisible transitions.
//
// Traces run concurrently: each one snapshots its own jittered delay
// factors into its simulator instead of mutating the shared module, and the
// serial merge below keeps exactly what the old one-trace-at-a-time loop
// reported — the lowest-index divergence or failure, with Events counting
// only the traces before it. The report is therefore identical at any
// worker count.
func (m *Model) CrossValidate(ctx context.Context, mod *netlist.Module, cfg XValConfig) (*XValResult, error) {
	res := &XValResult{Seed: cfg.Seed, Traces: cfg.Traces}
	type traceResult struct {
		events int
		div    *Divergence
		err    error
	}
	drv := faults.NewDriver(mod, ctrlnet.DesyncReset, 0, nil)
	tasks := make([]int, cfg.Traces)
	for k := range tasks {
		tasks[k] = k
	}
	// Per-trace errors travel inside the result (not as task errors), so
	// the merge can replicate the serial loop's stop-at-first semantics;
	// only cancellation aborts the fan-out itself.
	results, err := par.Map(ctx, tasks, func(ctx context.Context, _ int, k int) (traceResult, error) {
		if err := ctx.Err(); err != nil {
			return traceResult{}, err
		}
		obs, err := m.simTrace(mod, drv, cfg.Seed+int64(k))
		if err != nil {
			return traceResult{err: err}, nil
		}
		div, err := m.accept(obs, k)
		if err != nil {
			return traceResult{err: err}, nil
		}
		return traceResult{events: len(obs), div: div}, nil
	})
	if err != nil {
		return res, err
	}
	for _, r := range results {
		if r.err != nil {
			return res, r.err
		}
		if r.div != nil {
			res.Divergence = r.div
			return res, nil
		}
		res.Events += r.events
	}
	return res, nil
}

// simTrace runs one randomized simulation through the driver and returns
// the observed visible transitions after reset release.
func (m *Model) simTrace(mod *netlist.Module, drv *faults.Driver, seed int64) ([]obsEvent, error) {
	factors := sim.DelayFactorMap(mod, seed, xvalSpread, func(in *netlist.Inst) bool {
		return handshake.IsControlOrigin(in.Origin)
	})

	s, err := sim.New(mod, sim.Config{DelayFactors: factors})
	if err != nil {
		return nil, err
	}
	if err := drv.Start(s); err != nil {
		return nil, err
	}

	var obs []obsEvent
	for i := range m.sigs {
		if !m.visible(i) {
			continue
		}
		name := m.sigs[i].name
		if err := s.OnChange(name, func(t float64, v logic.V) {
			if t > 2.0 {
				obs = append(obs, obsEvent{t, name, v})
			}
		}); err != nil {
			return nil, err
		}
	}
	if err := s.Run(xvalHorizon); err != nil {
		return nil, err
	}
	sort.SliceStable(obs, func(a, b int) bool { return obs[a].t < obs[b].t })
	return obs, nil
}

// accept checks one observed trace is a firing sequence of the model:
// maintain the set of markings reachable via invisible transitions, fire
// each observed visible event from every marking that enables it, and
// report divergence when the set empties.
func (m *Model) accept(obs []obsEvent, traceIdx int) (*Divergence, error) {
	cur := map[string]state{}
	init := m.initial()
	cur[string(init)] = init
	var err error
	if cur, err = m.closure(cur); err != nil {
		return nil, err
	}
	var accepted []TraceEvent
	for _, e := range obs {
		idx, ok := m.sigOf[e.net]
		if !ok {
			continue
		}
		if !e.v.Known() {
			return m.divergence(cur, accepted, e, traceIdx, "unknown (X) value"), nil
		}
		want := e.v.Bool()
		next := map[string]state{}
		for key, st := range cur {
			if st.bit(idx) == want || m.target(st, idx) != want {
				continue
			}
			ns, viol := m.fire(st, idx)
			if viol != nil {
				continue
			}
			next[string(ns)] = ns
			_ = key
		}
		if len(next) == 0 {
			return m.divergence(cur, accepted, e, traceIdx, ""), nil
		}
		if next, err = m.closure(next); err != nil {
			return nil, err
		}
		cur = next
		accepted = append(accepted, TraceEvent{Net: e.net, Value: want})
	}
	return nil, nil
}

// closure saturates a marking set under invisible transitions, with the
// acceptance variant of the delay discipline. Falling delay outputs keep
// absolute priority (a single AND stage is the fastest element in the
// network, so a pending withdrawal always lands first). Rising arrivals
// wait for the *invisible* gate cascades to settle — but unlike the
// explorer they do not wait on pending visible events: the simulator
// launches an arrival when its chain delay elapses, not when some other
// region's latch-enable happens to fire, so conditioning arrivals on
// global stability would reject real traces. (Fully unrestricted arrivals
// are ruled out the other way: interleaving them through the cascades
// blows the closure frontier past any usable bound.)
func (m *Model) closure(set map[string]state) (map[string]state, error) {
	queue := make([]state, 0, len(set))
	for _, st := range set {
		queue = append(queue, st)
	}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		excited := m.excited(st)
		// The cascades' free interleavings are the breadth problem here just
		// as in the explorer, and the same persistent-singleton reduction is
		// sound for acceptance: the singleton diamond-commutes with every
		// other enabled transition, so a pending visible event stays enabled
		// along the reduced path and the set keeps every visited marking.
		if sing, _ := m.persistentSingleton(st, excited); sing >= 0 {
			excited = excited[sing : sing+1]
		} else {
			var falls, gates, rises []int
			for _, i := range excited {
				if m.sigs[i].kind == kindDelay {
					if st.bit(i) {
						falls = append(falls, i)
					} else {
						rises = append(rises, i)
					}
					continue
				}
				if !m.visible(i) {
					gates = append(gates, i)
				}
			}
			switch {
			case len(falls) > 0:
				excited = falls
			case len(gates) > 0:
				excited = gates
			default:
				excited = rises
			}
		}
		for _, i := range excited {
			if m.visible(i) {
				continue
			}
			ns, viol := m.fire(st, i)
			if viol != nil {
				continue
			}
			key := string(ns)
			if _, ok := set[key]; !ok {
				set[key] = ns
				queue = append(queue, ns)
				if len(set) > maxClosure {
					return nil, fmt.Errorf("equiv: cross-validation closure exceeded %d markings", maxClosure)
				}
			}
		}
	}
	return set, nil
}

const maxObservedTail = 48

// divergence builds the counterexample report for a rejected transition.
func (m *Model) divergence(cur map[string]state, accepted []TraceEvent, e obsEvent, traceIdx int, note string) *Divergence {
	d := &Divergence{
		TraceIndex: traceIdx, Time: e.t, Net: e.net, Value: e.v.Bool(),
	}
	if len(accepted) > maxObservedTail {
		accepted = accepted[len(accepted)-maxObservedTail:]
	}
	d.Observed = accepted
	// Deterministic sample marking: the smallest key in the current set.
	keys := make([]string, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	expected := map[string]bool{}
	for _, k := range keys {
		st := cur[k]
		for _, i := range m.excited(st) {
			if m.visible(i) {
				expected[fmt.Sprintf("%s%s", m.sigs[i].name, edge(m.target(st, i)))] = true
			}
		}
	}
	if len(keys) > 0 {
		d.Marking, _ = m.DecodeMarking(cur[keys[0]])
	}
	for ev := range expected {
		d.Expected = append(d.Expected, ev)
	}
	sort.Strings(d.Expected)
	if note != "" {
		d.Net = e.net + " (" + note + ")"
	}
	return d
}
