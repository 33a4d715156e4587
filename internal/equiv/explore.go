package equiv

import (
	"context"
	"fmt"
	"sort"
)

// genCap bounds how far the generation counters may spread after
// normalization. Correct semi-decoupled pipelines keep neighbouring
// regions within a couple of generations; a counter running this far ahead
// means the schedule has diverged (a token leaked or duplicated).
const genCap = 24

// state is one marking: a packed signal bitvector followed by one byte per
// generation counter (stored relative to the global minimum, which fire()
// re-normalizes, keeping the reachable space finite).
type state []byte

func (m *Model) sigBytes() int { return (len(m.sigs) + 7) / 8 }

func (st state) bit(i int) bool { return st[i>>3]&(1<<(i&7)) != 0 }
func (st state) setBit(i int, v bool) {
	if v {
		st[i>>3] |= 1 << (i & 7)
	} else {
		st[i>>3] &^= 1 << (i & 7)
	}
}

func (m *Model) ctr(st state, c int) int   { return int(st[m.sigBytes()+c]) }
func (m *Model) setCtr(st state, c, v int) { st[m.sigBytes()+c] = byte(v) }
func (m *Model) op(st state, o operand) bool {
	if o.sig < 0 {
		return o.stuck
	}
	return st.bit(o.sig)
}

// initial builds the post-reset marking: enables at their cell's reset
// phase, b bits tracking their enable, every request/acknowledge/join low,
// all counters zero. A healthy network is booted by the opaque slaves,
// whose request-outs are excited here (announcing the reset datum,
// generation 0).
func (m *Model) initial() state {
	st := make(state, m.sigBytes()+m.nCtr)
	for i := range m.sigs {
		st.setBit(i, m.sigs[i].init)
	}
	return st
}

// target computes the value signal i is excited towards; a signal is
// excited when target differs from its current value. These are the exact
// set/reset equations of the library's controller cells (CGMX1/CGSX1,
// CROX1, CBX1, ANDN3X1) with the reset pin released.
func (m *Model) target(st state, i int) bool {
	s := &m.sigs[i]
	cur := st.bit(i)
	switch s.kind {
	case kindG: // set: ao; reset: !ao & ri
		if m.op(st, s.a) {
			return true
		}
		if m.op(st, s.b) {
			return false
		}
		return cur
	case kindRO: // set: !g & !ao; reset: g & ao
		g, ao := m.op(st, s.a), m.op(st, s.b)
		if !g && !ao {
			return true
		}
		if g && ao {
			return false
		}
		return cur
	case kindB: // set: g; reset: !g & !ri
		g, ri := m.op(st, s.a), m.op(st, s.b)
		if g {
			return true
		}
		if !ri {
			return false
		}
		return cur
	case kindAI: // combinational: ri & !g & b
		return m.op(st, s.a) && !m.op(st, s.b) && m.op(st, s.c)
	case kindDelay: // matched delay chain: follows its source
		return m.op(st, s.a)
	case kindJoin: // C-Muller rendezvous
		all1, all0 := true, true
		for _, t := range s.terms {
			if m.op(st, t) {
				all0 = false
			} else {
				all1 = false
			}
		}
		if all1 {
			return true
		}
		if all0 {
			return false
		}
		return cur
	case kindEnvSrc: // eager producer: request whenever unacknowledged
		return !m.op(st, s.a)
	case kindEnvSink: // eager consumer: mirror the request-out
		return m.op(st, s.a)
	}
	return cur
}

func (m *Model) excited(st state) []int {
	var out []int
	for i := range m.sigs {
		if m.target(st, i) != st.bit(i) {
			out = append(out, i)
		}
	}
	return out
}

// fire applies one transition to a copy of st, running the schedule checks
// that define safety and flow equivalence. The returned violation, if any,
// is enabled exactly at st (the enabling marking).
func (m *Model) fire(st state, i int) (state, *Violation) {
	s := &m.sigs[i]
	v := !st.bit(i)
	ns := make(state, len(st))
	copy(ns, st)
	ns.setBit(i, v)
	r := s.region

	switch s.kind {
	case kindG:
		if !v { // enable falls: the latch captures
			if s.master {
				for _, ref := range m.preds[r] {
					want := m.ctr(st, m.mCtr[r])
					got, viol := m.genOf(st, ref, map[int]bool{})
					if viol != nil {
						return nil, viol
					}
					if ref.kind == genEnv {
						got = m.ctr(st, m.envCtr[ref.sig]) - 1
					}
					if got != want {
						return nil, &Violation{
							Rule: RuleFlow, Sig: s.name, Region: r,
							Msg: fmt.Sprintf("region %d master capture %d latches generation %d from %s (synchronous schedule requires %d)",
								r, want+1, got, m.refName(ref), want),
						}
					}
				}
				m.setCtr(ns, m.mCtr[r], m.ctr(st, m.mCtr[r])+1)
			} else {
				want := m.ctr(st, m.sCtr[r]) + 1
				got, viol := m.masterOut(st, r, map[int]bool{})
				if viol != nil {
					return nil, viol
				}
				if got != want {
					return nil, &Violation{
						Rule: RuleFlow, Sig: s.name, Region: r,
						Msg: fmt.Sprintf("region %d slave capture %d latches master generation %d (synchronous schedule requires %d)",
							r, want, got, want),
					}
				}
				m.setCtr(ns, m.sCtr[r], want)
			}
		} else { // enable rises: the latch reopens — overwrite guards
			if s.master {
				if mg, sg := m.ctr(st, m.mCtr[r]), m.ctr(st, m.sCtr[r]); mg != sg {
					return nil, &Violation{
						Rule: RuleSafety, Sig: s.name, Region: r,
						Msg: fmt.Sprintf("region %d master reopens while its slave holds generation %d of %d (unconsumed datum overwritten)",
							r, sg, mg),
					}
				}
			} else {
				sg := m.ctr(st, m.sCtr[r])
				for _, ref := range m.consumers[r] {
					var got int
					switch ref.kind {
					case genCons:
						got = m.ctr(st, m.mCtr[ref.region])
					case genEnvSink:
						got = m.ctr(st, m.envCtr[ref.sig])
					default:
						continue
					}
					if got != sg+1 {
						return nil, &Violation{
							Rule: RuleSafety, Sig: s.name, Region: r,
							Msg: fmt.Sprintf("region %d slave reopens before %s consumed generation %d (overwrite of a live datum)",
								r, m.refName(ref), sg),
						}
					}
				}
			}
		}
	case kindEnvSrc:
		if v { // next input presented: the previous one must be consumed
			c := m.envCtr[i]
			if got := m.ctr(st, c); got != m.ctr(st, m.mCtr[r]) {
				return nil, &Violation{
					Rule: RuleFlow, Sig: s.name, Region: r,
					Msg: fmt.Sprintf("environment presents input %d before region %d consumed input %d",
						got+1, r, got),
				}
			}
			m.setCtr(ns, c, m.ctr(st, c)+1)
		}
	case kindEnvSink:
		if v { // output consumed: must match the production schedule
			c := m.envCtr[i]
			sg := m.ctr(st, m.sCtr[r])
			if got := m.ctr(st, c); got != sg {
				return nil, &Violation{
					Rule: RuleFlow, Sig: s.name, Region: r,
					Msg: fmt.Sprintf("environment consumes output %d but region %d has produced %d",
						got+1, r, sg),
				}
			}
			m.setCtr(ns, c, m.ctr(st, c)+1)
		}
	}

	if viol := m.normalize(ns); viol != nil {
		viol.Sig = s.name
		return nil, viol
	}
	return ns, nil
}

// normalize rebases all generation counters on their minimum and bounds
// the spread: correct networks stay within a few generations of each
// other, so exceeding genCap is itself a flow violation (a region running
// unboundedly ahead of the schedule).
func (m *Model) normalize(st state) *Violation {
	if m.nCtr == 0 {
		return nil
	}
	min := m.ctr(st, 0)
	for c := 1; c < m.nCtr; c++ {
		if v := m.ctr(st, c); v < min {
			min = v
		}
	}
	if min > 0 {
		for c := 0; c < m.nCtr; c++ {
			m.setCtr(st, c, m.ctr(st, c)-min)
		}
	}
	for c := 0; c < m.nCtr; c++ {
		if m.ctr(st, c) > genCap {
			return &Violation{
				Rule: RuleFlow,
				Msg:  fmt.Sprintf("generation divergence: a schedule counter ran %d generations ahead of the slowest region", genCap),
			}
		}
	}
	return nil
}

// genOf resolves the generation a master capture would latch from one
// source: a closed pred slave offers its captured generation; a
// transparent one exposes its own master, recursively. A cycle of
// transparent latches is a data race (nothing holds the datum).
func (m *Model) genOf(st state, ref genRef, visiting map[int]bool) (int, *Violation) {
	switch ref.kind {
	case genSlave:
		return m.slaveOut(st, ref.region, visiting)
	case genMaster:
		return m.masterOut(st, ref.region, visiting)
	case genEnv:
		return m.ctr(st, m.envCtr[ref.sig]), nil
	}
	return 0, nil
}

func (m *Model) slaveOut(st state, r int, visiting map[int]bool) (int, *Violation) {
	if idx := m.sg[r]; idx >= 0 && st.bit(idx) {
		return m.masterOut(st, r, visiting)
	}
	return m.ctr(st, m.sCtr[r]), nil
}

func (m *Model) masterOut(st state, r int, visiting map[int]bool) (int, *Violation) {
	if idx := m.mg[r]; idx < 0 || !st.bit(idx) {
		return m.ctr(st, m.mCtr[r]), nil
	}
	if visiting[r] {
		return 0, &Violation{
			Rule: RuleSafety, Region: r,
			Msg: fmt.Sprintf("transparent-latch cycle through region %d: no latch holds the datum (data race)", r),
		}
	}
	visiting[r] = true
	defer delete(visiting, r)
	gen, have := 0, false
	for _, ref := range m.preds[r] {
		var g int
		var viol *Violation
		switch ref.kind {
		case genEnv:
			g = m.ctr(st, m.envCtr[ref.sig]) - 1
		default:
			g, viol = m.genOf(st, ref, visiting)
			if viol != nil {
				return 0, viol
			}
		}
		if have && g != gen {
			return 0, &Violation{
				Rule: RuleSafety, Region: r,
				Msg: fmt.Sprintf("region %d transparent master mixes generations %d and %d from its inputs", r, gen, g),
			}
		}
		gen, have = g, true
	}
	return gen + 1, nil
}

func (m *Model) refName(ref genRef) string {
	switch ref.kind {
	case genSlave:
		return fmt.Sprintf("region %d slave", ref.region)
	case genMaster:
		return fmt.Sprintf("region %d master", ref.region)
	case genCons:
		return fmt.Sprintf("region %d", ref.region)
	case genEnv, genEnvSink:
		if ref.sig >= 0 && ref.sig < len(m.sigs) {
			return "environment channel " + m.sigs[ref.sig].name
		}
	}
	return "environment"
}

// ExploreOptions bound and tune the state-space search.
type ExploreOptions struct {
	MaxStates int  // marking budget; 0 means DefaultMaxStates
	NoReduce  bool // disable the partial-order reduction (full interleaving)
}

// DefaultMaxStates is the marking budget when none is given.
const DefaultMaxStates = 500_000

// visitEntry records the edge a marking was first discovered through: the
// marking it was fired from and the signal that fired (-1 for the root).
type visitEntry struct {
	prev state
	sig  int32
}

// Explore runs the breadth-first reachability analysis and returns the
// verification result. The search stops at the first property violation
// (BFS order makes its counterexample trace minimal in transition count)
// or when the marking budget is exhausted, which is reported explicitly as
// truncation, never silently as a proof. The only error is ctx
// cancellation, checked on entry and every 1024 markings.
//
// The search is one FIFO loop. Each popped marking is counted against the
// budget, reported as a deadlock if nothing is excited, and has its hazard
// notes folded; then its prioritized transitions (persistent-singleton
// reduced unless NoReduce) fire in order, and the first violation ends the
// search. The counterexample trace follows first-discovery edges back to
// reset.
func (m *Model) Explore(ctx context.Context, opts ExploreOptions) (*Result, error) {
	max := opts.MaxStates
	if max <= 0 {
		max = DefaultMaxStates
	}
	res := &Result{
		Design: m.Design, Regions: len(m.Regions), Signals: len(m.sigs),
		MaxStates: max, Reduced: !opts.NoReduce,
	}
	init := m.initial()
	queue := []state{init}
	visited := map[string]visitEntry{string(init): {sig: -1}}
	hazardSeen := map[string]bool{}

	for len(queue) > 0 {
		if res.States%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		st := queue[0]
		queue = queue[1:]
		if res.States == max {
			res.Truncated = true
			return res, nil
		}
		res.States++

		excited := m.excited(st)
		if len(excited) == 0 {
			res.Violation = &Violation{Rule: RuleDeadlock,
				Msg: "reachable marking enables no transition (handshake deadlock)"}
			m.attachTrace(res.Violation, visited, st, -1)
			return res, nil
		}
		fire := m.prioritize(st, excited)
		if !opts.NoReduce {
			t, notes := m.persistentSingleton(st, fire)
			if t >= 0 {
				fire = fire[t : t+1]
			}
			m.noteHazards(res, hazardSeen, notes)
		}
		for _, i := range fire {
			ns, viol := m.fire(st, i)
			if viol != nil {
				m.attachTrace(viol, visited, st, i)
				res.Violation = viol
				return res, nil
			}
			if _, seen := visited[string(ns)]; !seen {
				visited[string(ns)] = visitEntry{prev: st, sig: int32(i)}
				queue = append(queue, ns)
			}
		}
	}
	res.DeadlockFree, res.Safe, res.FlowEquivalent = true, true, true
	return res, nil
}

// prioritize applies the protocol's relative-timing assumptions, which are
// exactly the two timing properties of the AND-bypass delay elements the
// flow sizes:
//
//   - rising arrivals are slow (fundamental mode): a request climbs the
//     full matched chain, sized to cover the region's datapath settling —
//     on the order of the original clock period — while any controller
//     cascade between two arrivals is a handful of gate delays. A rising
//     delay output therefore fires only from control-stable markings.
//   - falling arrivals are fast (return-to-zero): every AND stage passes a
//     low immediately, so a request withdrawal crosses the chain in one
//     gate delay and beats any multi-gate controller chain racing it. A
//     falling delay output fires before everything else.
//
// The semi-decoupled controller is not speed independent without these: a
// pure interleaving exploration reaches orderings the chains exclude by
// construction — a stale request tail serving a second capture, a request
// round trip beating a one-gate opened-bit reset — and reports their
// phantom deadlocks. Controller gates race each other freely; only the
// delay outputs are scheduled.
func (m *Model) prioritize(st state, excited []int) []int {
	var falls, fast []int
	for _, i := range excited {
		if m.sigs[i].kind == kindDelay {
			if st.bit(i) {
				falls = append(falls, i)
			}
			continue
		}
		fast = append(fast, i)
	}
	if len(falls) > 0 {
		return falls
	}
	if len(fast) > 0 {
		return fast
	}
	return excited
}

// persistentSingleton looks for one invisible excited transition that
// commutes with every other enabled transition (the exact local diamond
// check, both directions). When found, firing it alone is sound: every
// other enabled transition stays excited towards the same value, invisible
// firings never touch the enables or counters the property checks read, so
// all visible orderings survive into the successor. Arrival transitions
// are never chosen as the singleton: they only run in control-stable
// markings, where the settling an arrival triggers could legitimately
// withdraw a sibling arrival's excitation — those rare states are expanded
// fully instead. Returns -1 (full expansion) otherwise. Failed diamonds
// where a transition's excitation is withdrawn are returned as hazard
// notes — non-persistence is exactly an SI hazard of the control network.
func (m *Model) persistentSingleton(st state, excited []int) (int, []string) {
	var notes []string
	for t, i := range excited {
		if m.visible(i) || m.sigs[i].kind == kindDelay {
			continue
		}
		after := make(state, len(st))
		copy(after, st)
		after.setBit(i, !st.bit(i))
		ok := true
		for _, j := range excited {
			if j == i {
				continue
			}
			// j must stay excited towards the same value after i fires…
			if m.target(after, j) != m.target(st, j) {
				ok = false
				if m.target(after, j) == st.bit(j) {
					notes = append(notes, fmt.Sprintf("firing %s withdraws the excitation of %s", m.sigs[i].name, m.sigs[j].name))
				}
				continue
			}
			// …and i must stay excited after j fires.
			afterJ := make(state, len(st))
			copy(afterJ, st)
			afterJ.setBit(j, !st.bit(j))
			if m.target(afterJ, i) != m.target(st, i) {
				ok = false
				if m.target(afterJ, i) == st.bit(i) {
					notes = append(notes, fmt.Sprintf("firing %s withdraws the excitation of %s", m.sigs[j].name, m.sigs[i].name))
				}
			}
		}
		if ok {
			return t, notes
		}
	}
	return -1, notes
}

const maxHazardNotes = 8

func (m *Model) noteHazards(res *Result, seen map[string]bool, notes []string) {
	for _, n := range notes {
		if seen[n] || len(res.Hazards) >= maxHazardNotes {
			continue
		}
		seen[n] = true
		res.Hazards = append(res.Hazards, n)
	}
}

// attachTrace reconstructs the firing sequence from the initial marking to
// the violation's enabling marking enab (plus the violating event itself)
// and decodes that marking for the report.
func (m *Model) attachTrace(v *Violation, visited map[string]visitEntry, enab state, lastSig int) {
	v.Marking, v.Gens = m.DecodeMarking(enab)
	var events []TraceEvent
	if lastSig >= 0 {
		events = append(events, TraceEvent{Net: m.sigs[lastSig].name, Value: !enab.bit(lastSig)})
	}
	for st := enab; ; {
		e, ok := visited[string(st)]
		if !ok || e.sig < 0 {
			break
		}
		events = append(events, TraceEvent{Net: m.sigs[e.sig].name, Value: st.bit(int(e.sig))})
		st = e.prev
	}
	// Collected backwards; reverse into firing order.
	for l, r := 0, len(events)-1; l < r; l, r = l+1, r-1 {
		events[l], events[r] = events[r], events[l]
	}
	v.Events = events
}

// DecodeMarking renders a marking into per-net values and per-region
// generation counts for reports and traces.
func (m *Model) DecodeMarking(st state) (nets map[string]bool, gens map[string]int) {
	nets = map[string]bool{}
	gens = map[string]int{}
	for i := range m.sigs {
		nets[m.sigs[i].name] = st.bit(i)
	}
	for _, g := range m.Regions {
		gens[fmt.Sprintf("G%d/master", g)] = m.ctr(st, m.mCtr[g])
		gens[fmt.Sprintf("G%d/slave", g)] = m.ctr(st, m.sCtr[g])
	}
	keys := make([]int, 0, len(m.envCtr))
	for i := range m.envCtr {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		gens[m.sigs[i].name] = m.ctr(st, m.envCtr[i])
	}
	return nets, gens
}
