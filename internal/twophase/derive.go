package twophase

import (
	"fmt"
	"slices"
	"sort"

	"desync/internal/ctrlnet"
	"desync/internal/netlist"
)

// Network is the two-phase generator structure as derived from a netlist —
// names and pin connectivity only, no flow state — so the same extraction
// works on a freshly generated design and on one re-read from Verilog.
// It deliberately shares no code with the generate stage: the whole point
// of the cross-check is that the two views are produced independently.
type Network struct {
	// Regions lists the regions with a complete distribution pair, sorted.
	Regions []int
	// RingLevels, Nov1Levels and Nov2Levels are the observed chain depths.
	RingLevels, Nov1Levels, Nov2Levels int
	// Phi1 and Phi2 are the splitter output net names ("" when missing).
	Phi1, Phi2 string
	// RingClosed reports the ring topology: the chain's first stage taps
	// the source NOR's output and its last stage drives the feedback pin.
	RingClosed bool
	// CrossCoupled reports the splitter topology: each NOR's feedback pin
	// is the opposite phase through its non-overlap chain.
	CrossCoupled bool
	// Wired marks regions whose distribution buffers tap the phase roots
	// on their inputs and drive a net on their outputs.
	Wired map[int]bool
}

// chainLen counts the stages of one symmetric chain by name, returning the
// first and last stage instances for topology checks.
func chainLen(m *netlist.Module, prefix string) (n int, first, last *netlist.Inst) {
	for i := 1; ; i++ {
		in := m.Inst(fmt.Sprintf("%s/b%d", prefix, i))
		if in == nil {
			return i - 1, first, last
		}
		if i == 1 {
			first = in
		}
		last = in
	}
}

// chainSpans reports whether a chain runs from net `from` into net `to`.
func chainSpans(first, last *netlist.Inst, from, to *netlist.Net) bool {
	return first != nil && last != nil &&
		first.Conn("A") == from && last.Conn("Z") == to
}

// Derive extracts the generator structure from the module. A module with
// no generator yields an empty Network (nil Phi nets, no regions); Diff
// then reports every absence against the claim.
func Derive(m *netlist.Module) *Network {
	n := &Network{Wired: map[int]bool{}}

	src := m.Inst(ctrlnet.TPSrcName)
	p1 := m.Inst(ctrlnet.TPPhase1Name)
	p2 := m.Inst(ctrlnet.TPPhase2Name)

	var ringFirst, ringLast, nov1First, nov1Last, nov2First, nov2Last *netlist.Inst
	n.RingLevels, ringFirst, ringLast = chainLen(m, ctrlnet.TPRingPrefix)
	n.Nov1Levels, nov1First, nov1Last = chainLen(m, ctrlnet.TPNov1Prefix)
	n.Nov2Levels, nov2First, nov2Last = chainLen(m, ctrlnet.TPNov2Prefix)

	if src != nil {
		n.RingClosed = chainSpans(ringFirst, ringLast, src.Conn("Z"), src.Conn("B"))
	}
	var phi1, phi2 *netlist.Net
	if p1 != nil {
		phi1 = p1.Conn("Z")
		if phi1 != nil {
			n.Phi1 = phi1.Name
		}
	}
	if p2 != nil {
		phi2 = p2.Conn("Z")
		if phi2 != nil {
			n.Phi2 = phi2.Name
		}
	}
	if p1 != nil && p2 != nil {
		n.CrossCoupled = chainSpans(nov1First, nov1Last, phi1, p2.Conn("B")) &&
			chainSpans(nov2First, nov2Last, phi2, p1.Conn("B"))
	}

	// Distribution: collect each region's buffer pair by name and check it
	// taps the phase roots.
	type pair struct{ tpm, tps *netlist.Inst }
	dist := map[int]*pair{}
	for _, in := range m.Insts {
		g, ok := ctrlnet.Region(in.Name)
		if !ok {
			continue
		}
		switch in.Name {
		case ctrlnet.TPDistName(g, true):
			p := dist[g]
			if p == nil {
				p = &pair{}
				dist[g] = p
			}
			p.tpm = in
		case ctrlnet.TPDistName(g, false):
			p := dist[g]
			if p == nil {
				p = &pair{}
				dist[g] = p
			}
			p.tps = in
		}
	}
	for g, p := range dist {
		if p.tpm == nil || p.tps == nil {
			continue
		}
		n.Regions = append(n.Regions, g)
		n.Wired[g] = phi1 != nil && phi2 != nil &&
			p.tpm.Conn("A") == phi1 && p.tpm.Conn("Z") != nil &&
			p.tps.Conn("A") == phi2 && p.tps.Conn("Z") != nil
	}
	sort.Ints(n.Regions)
	return n
}

// Diff cross-checks the generate stage's claim against the derived
// network, in the same vocabulary as the desync backend's ctrlnet.Diff.
// An empty result means the netlist structurally realizes exactly what
// the flow reported.
func Diff(c *Claim, n *Network) []ctrlnet.Mismatch {
	var out []ctrlnet.Mismatch
	miss := func(g int, format string, args ...any) {
		out = append(out, ctrlnet.Mismatch{Region: g, What: fmt.Sprintf(format, args...)})
	}
	if !slices.Equal(c.Regions, n.Regions) {
		miss(-1, "claimed regions %v, netlist has %v", c.Regions, n.Regions)
		return out // per-region checks would only cascade noise
	}
	if n.RingLevels != c.RingLevels {
		miss(-1, "claimed %d ring levels, netlist has %d", c.RingLevels, n.RingLevels)
	}
	if !n.RingClosed {
		miss(-1, "ring oscillator loop is not closed through the source NOR")
	}
	if n.Nov1Levels != c.NovLevels || n.Nov2Levels != c.NovLevels {
		miss(-1, "claimed %d non-overlap levels, netlist has %d/%d",
			c.NovLevels, n.Nov1Levels, n.Nov2Levels)
	}
	if !n.CrossCoupled {
		miss(-1, "phase splitter is not cross-coupled through the non-overlap chains")
	}
	if n.Phi1 == n.Phi2 {
		miss(-1, "phi1 and phi2 resolve to the same net %q", n.Phi1)
	}
	for _, g := range c.Regions {
		if !n.Wired[g] {
			miss(g, "distribution pair does not tap the phase roots")
		}
	}
	return out
}
