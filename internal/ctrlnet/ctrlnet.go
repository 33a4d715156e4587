// Package ctrlnet is the canonical intermediate representation of the
// inserted control network. Desynchronization derives a self-timed
// controller network whose structure — regions and their dependency graph,
// master/slave latch phases, req/ack channel pairing, C-Muller rendezvous
// trees, matched delay-element arrivals — used to be re-derived privately by
// every consumer (lint's DS-* rules, equiv's marking model, the fault
// campaigns). This package owns that derivation once:
//
//   - Derive(mod) rebuilds the Network from netlist structure alone (names
//     and pin connectivity, both of which survive Verilog round trips),
//     memoized against the module's mutation counter;
//   - the insert stage of internal/core emits a Claim — what the flow says
//     it built — directly from its own bookkeeping;
//   - Diff(claim, network) cross-checks the two, making "what the flow
//     claims" vs "what the netlist says" a first-class flow gate instead of
//     a per-consumer re-implementation.
//
// The package also owns the "G<id>_" naming convention (names.go); repolint
// rule RL-CTRLNET forbids parsing or constructing those names anywhere else.
package ctrlnet

import (
	"desync/internal/netlist"
)

// Phase is a latch's side of the master/slave substitution.
type Phase int

// The two latch phases.
const (
	Master Phase = iota
	Slave
)

func (p Phase) String() string {
	if p == Master {
		return "master"
	}
	return "slave"
}

// Root is one controller latch-enable gate reachable backwards from a latch
// enable net: the (region, phase) that controls the latch.
type Root struct {
	Region int
	Phase  Phase
}

// Latch is one latch instance with its derived coloring. A well-formed latch
// has exactly one Root; zero roots (floating or un-gated enables) and
// multiple roots (enables mixing controller phases) are the DS-ENABLE
// failure modes, kept explicit here so rules can report them.
type Latch struct {
	Inst   *netlist.Inst
	Enable *netlist.Net // net on the enable pin; nil when unconnected
	Roots  []Root       // distinct controller roots, first-reached order
}

// Colored reports whether the latch has exactly one controller root.
func (l *Latch) Colored() bool { return len(l.Roots) == 1 }

// Region returns the owning region of a colored latch, -1 otherwise.
func (l *Latch) Region() int {
	if !l.Colored() {
		return -1
	}
	return l.Roots[0].Region
}

// Phase returns the phase of a colored latch; only meaningful when Colored.
func (l *Latch) Phase() Phase {
	if !l.Colored() {
		return Master
	}
	return l.Roots[0].Phase
}

// Gates holds the four gate instances of one controller half (any may be
// nil when missing from the netlist — consumers report, not crash).
type Gates struct {
	G, RO, B, AI *netlist.Inst
}

// Controller is one region's master/slave controller pair.
type Controller struct {
	Region        int
	Master, Slave Gates
}

// Complete reports whether all eight controller gates exist.
func (c *Controller) Complete() bool {
	return c.Master.G != nil && c.Master.RO != nil && c.Master.B != nil && c.Master.AI != nil &&
		c.Slave.G != nil && c.Slave.RO != nil && c.Slave.B != nil && c.Slave.AI != nil
}

// Channel holds the six control nets of one region's req/ack channel; a nil
// field means the net is missing from the netlist.
type Channel struct {
	MRI, MAI, MRO, SRI, SAI, SRO *netlist.Net
}

// BySuffix returns the channel net for one of the ChannelSuffixes.
func (c *Channel) BySuffix(suffix string) *netlist.Net {
	switch suffix {
	case "mri":
		return c.MRI
	case "mai":
		return c.MAI
	case "mro":
		return c.MRO
	case "sri":
		return c.SRI
	case "sai":
		return c.SAI
	case "sro":
		return c.SRO
	}
	return nil
}

// CTree is one C-Muller rendezvous tree, collapsed to its external inputs.
type CTree struct {
	Prefix  string // instance prefix including the trailing slash
	Members []*netlist.Inst
	Leaves  []string // sorted external input net names
}

// DelayChain is one matched delay-element AND chain with its measured
// worst-corner arrival (rise through the longest tap, variability-priced the
// same way sta.Build prices gates).
type DelayChain struct {
	Prefix string        // instance prefix including the trailing slash
	First  *netlist.Inst // stage a1
	Levels int
	Delay  float64
}

// DataEdge is one latch-to-latch data reach: sequential source Src reaches
// the data net Net of sink latch Sink backwards through combinational
// datapath logic. Direct marks Src driving Net itself (the intra-region
// register hop the dependency graph excludes).
type DataEdge struct {
	Sink   *netlist.Inst
	Net    *netlist.Net
	Src    *netlist.Inst
	Direct bool
}

// Network is the derived IR of one module's control network.
type Network struct {
	Module  *netlist.Module
	Regions []int // sorted region ids, from master controller instances

	Controllers map[int]*Controller
	Channels    map[int]*Channel

	// Latches lists every latch instance in module order with its coloring;
	// latchOf indexes them by InstID.
	Latches []*Latch
	latchOf []*Latch

	// Edges lists every latch-to-latch data reach of the colored latches, in
	// deterministic (module, pin, source-name) order. Duplicate (sink, net)
	// pairs are preserved when several data pins share one net, so finding
	// multiplicity matches the per-pin view the rules take.
	Edges []DataEdge

	// Preds/Succs is the region dependency graph derived from Edges: an edge
	// u→v when a latch of u reaches a data input of a latch of v, excluding
	// direct intra-region register hops (matching core.BuildDDG).
	Preds, Succs map[int][]int

	// ReqTrees/AckTrees hold the rendezvous trees that exist in the netlist
	// (regions with at most one predecessor/successor have none).
	ReqTrees, AckTrees map[int]*CTree

	// ReqDelays/MSDelays hold the matched request elements and master→slave
	// elements found per region (completion-detected regions have no request
	// element).
	ReqDelays, MSDelays map[int]*DelayChain

	// Completion marks regions using dual-rail completion detection.
	Completion map[int]bool

	// FFs lists flip-flops that survived substitution (a DS-FF violation on
	// a post-flow design; non-empty on any synchronous design).
	FFs []*netlist.Inst

	// EnvRequests/EnvAcks list the environment handshake input ports present
	// for boundary regions, sorted.
	EnvRequests, EnvAcks []string

	seq uint64 // Module.ModSeq() at derivation time
}

// Empty reports whether no controller network was found: the module is not
// a desynchronized design.
func (n *Network) Empty() bool { return len(n.Regions) == 0 }

// Latch returns the coloring of one latch instance, nil for non-latches
// and for instances of other modules.
func (n *Network) Latch(in *netlist.Inst) *Latch {
	if id := in.ID(); int(id) < len(n.latchOf) && n.Module.InstByID(id) == in {
		return n.latchOf[id]
	}
	return nil
}

// ControlNet resolves a region control net by suffix: the six channel nets
// from the Channel, the gm/gs latch-enable nets from the controller gate
// outputs, anything else by canonical name.
func (n *Network) ControlNet(g int, suffix string) *netlist.Net {
	if ch := n.Channels[g]; ch != nil {
		if net := ch.BySuffix(suffix); net != nil {
			return net
		}
	}
	gateQ := func(in *netlist.Inst) *netlist.Net {
		if in == nil {
			return nil
		}
		return in.Conn("Q")
	}
	if c := n.Controllers[g]; c != nil {
		switch suffix {
		case "gm":
			if net := gateQ(c.Master.G); net != nil {
				return net
			}
		case "gs":
			if net := gateQ(c.Slave.G); net != nil {
				return net
			}
		}
	}
	return n.Module.Net(Name(g, suffix))
}
