// Package twophase is the two-phase non-overlapping clocking backend of
// the conversion flow. Where the desync backend replaces the removed clock
// tree with the paper's handshake controller network, this backend drives
// the same master/slave latches from an on-chip two-phase clock generator:
//
//   - a ring oscillator — one NOR gate (reset input plus ring feedback)
//     closed through a symmetric buffer chain whose depth sets the
//     half-period, sized off the same per-region STA budgets the desync
//     backend uses for its matched delay elements;
//   - a cross-coupled NOR phase splitter producing phi1 (master enables)
//     and phi2 (slave enables), with delay-sized feedback chains that
//     guarantee the two phases never overlap;
//   - one pair of phase-distribution buffers per region, driving the
//     master and slave latch-enable nets the shared flip-flop
//     substitution created.
//
// The result is synchronous in rhythm but self-timed in origin: no
// external clock port survives, the period is set by the sized ring, and
// the non-overlap gap makes race-through between the latch phases
// structurally impossible. The backend reuses the flow's shared SDC
// vocabulary — derived clocks with explicit waveforms, loop-breaking
// disabled arcs, size-only markers — so the same backend tooling consumes
// either backend's constraints.
package twophase

import (
	"fmt"
	"math"
	"sort"

	"desync/internal/ctrlnet"
	"desync/internal/handshake"
	"desync/internal/netlist"
	"desync/internal/sdc"
	"desync/internal/sta"
)

// RstPortName is the generator's reset input. While high, the ring is
// frozen and the generator parks with phi2 asserted (slaves transparent,
// masters opaque); the first phi1 pulse after release latches the initial
// data into the masters.
const RstPortName = "rst_2phase"

// Cell names the generator is built from. The ring and non-overlap chains
// use handshake.AddSymmetricDelayElement's BUFX1 stages; the splitter and
// source are NORs so reset folds into the oscillator for free; the
// per-region distribution uses the library's clock buffer.
const (
	srcCellName  = "NOR2X1"
	distCellName = "CLKBUFX2"
	ringCellName = "BUFX1"
)

// Enable is one region's latch-enable net pair, as created by the shared
// flip-flop substitution: Master opens the masters (phi1), Slave the
// slaves (phi2).
type Enable struct {
	Master, Slave *netlist.Net
}

// Sizing is the generator's timing parameterization, derived from the
// per-region STA budgets exactly where the desync backend derives its
// delay-element depths.
type Sizing struct {
	// RingLevels is the symmetric buffer-chain depth of the ring; one
	// traversal (plus the source NOR) is the half-period.
	RingLevels int
	// NovLevels is the depth of each non-overlap feedback chain.
	NovLevels int
	// HalfPeriod and Period are the achieved ring timings at the worst
	// corner (ns).
	HalfPeriod, Period float64
	// NonOverlap is the achieved gap between one phase falling and the
	// other rising (ns).
	NonOverlap float64
	// MaxBudget is the worst per-region launch-to-capture budget the
	// sizing covered (ns).
	MaxBudget float64
}

// Claim is what the generate stage says it built, in the same
// claim-versus-derivation discipline as the desync backend: Verify diffs
// it against the structure Derive extracts from the exported netlist.
type Claim struct {
	Regions    []int // sorted
	RingLevels int
	NovLevels  int
}

// Result reports everything the backend produced; it rides on
// core.Result.BackendResult.
type Result struct {
	Sizing
	// Regions lists the regions that received distribution buffers.
	Regions []int
	// GenCells counts the generator core (source, inverter, splitter,
	// ring and non-overlap chains); DistBufs the per-region buffers.
	GenCells, DistBufs int
	Constraints        *sdc.Constraints
	Claim              *Claim
}

// cellLevel returns a cell's average A→Z propagation at the worst corner —
// the per-stage quantum for ring and non-overlap chains, averaged over
// rise and fall because an oscillating node alternates between them.
func cellLevel(lib *netlist.Library, cell, from string) (float64, error) {
	c, err := lib.Cell(cell)
	if err != nil {
		return 0, fmt.Errorf("twophase: %w", err)
	}
	arc := c.Arc(from, "Z")
	if arc == nil {
		return 0, fmt.Errorf("twophase: cell %s has no %s->Z arc", cell, from)
	}
	return (arc.Rise.At(netlist.Worst) + arc.Fall.At(netlist.Worst)) / 2, nil
}

// SizeGenerator computes the ring and non-overlap chain depths for the
// given regions. The target period is the worst region budget times the
// margin — the same rule that sizes the desync backend's matched delay
// elements — never faster than the design's original synchronous period
// when one was given. The non-overlap gap covers the worst latch
// enable-to-output, so data released by a closing phase can never race
// through the other phase's still-open latches.
func SizeGenerator(lib *netlist.Library, regions []int, rds map[int]*sta.RegionDelay,
	margin, period float64) (*Sizing, error) {

	buf, err := cellLevel(lib, ringCellName, "A")
	if err != nil {
		return nil, err
	}
	nor, err := cellLevel(lib, srcCellName, "B")
	if err != nil {
		return nil, err
	}
	if buf <= 0 {
		return nil, fmt.Errorf("twophase: %s has a non-positive stage delay", ringCellName)
	}

	s := &Sizing{}
	maxC2Q := 0.0
	for _, g := range regions {
		rd := rds[g]
		if rd == nil {
			continue
		}
		if b := rd.Budget(); b > s.MaxBudget {
			s.MaxBudget = b
		}
		if rd.ClkToQ > maxC2Q {
			maxC2Q = rd.ClkToQ
		}
	}
	if s.MaxBudget <= 0 {
		return nil, fmt.Errorf("twophase: no region launch-to-capture budgets to size the ring from")
	}

	target := s.MaxBudget * margin
	if period > target {
		target = period
	}
	s.RingLevels = int(math.Ceil((target/2 - nor) / buf))
	if s.RingLevels < 1 {
		s.RingLevels = 1
	}
	s.NovLevels = int(math.Ceil(maxC2Q / buf))
	if s.NovLevels < 2 {
		s.NovLevels = 2
	}
	// Each phase must stay high for longer than it stays suppressed: grow
	// the ring until the half-period is at least twice the non-overlap gap,
	// so the duty cycle survives a conservative gap sizing.
	gap := nor + float64(s.NovLevels)*buf
	if half := nor + float64(s.RingLevels)*buf; half < 2*gap {
		s.RingLevels = int(math.Ceil((2*gap - nor) / buf))
	}
	s.NonOverlap = gap
	s.HalfPeriod = nor + float64(s.RingLevels)*buf
	s.Period = 2 * s.HalfPeriod
	return s, nil
}

// Generate inserts the two-phase clock generator and distribution into the
// design and emits the backend constraints: the Phi1/Phi2 derived clocks
// with explicitly non-overlapping waveforms, the set_disable_timing arcs
// that break the ring and the splitter cross-coupling for STA, and
// size-only markers on every delay-matched cell. The enables map is the
// substitution's per-region latch-enable pairs; every region in it gets a
// distribution buffer pair.
func Generate(d *netlist.Design, enables map[int]Enable, res *Result) error {
	m, lib := d.Top, d.Lib
	res.Constraints = &sdc.Constraints{}

	if m.Port(RstPortName) != nil {
		return fmt.Errorf("twophase: port %s already exists", RstPortName)
	}
	rst := m.AddPort(RstPortName, netlist.In).Net

	norCell, err := lib.Cell(srcCellName)
	if err != nil {
		return fmt.Errorf("twophase: %w", err)
	}
	invCell, err := lib.Cell("INVX1")
	if err != nil {
		return fmt.Errorf("twophase: %w", err)
	}
	distCell, err := lib.Cell(distCellName)
	if err != nil {
		return fmt.Errorf("twophase: %w", err)
	}

	gate := func(name string, cell *netlist.CellDef) *netlist.Inst {
		in := m.AddInst(name, cell)
		in.Origin = "tpgen"
		in.SizeOnly = true
		return in
	}

	// Ring oscillator: NOR(rst, feedback) closed through the symmetric
	// chain — one inversion around the loop, so it oscillates with a
	// half-period of one traversal once reset releases.
	osc := m.AddNet(ctrlnet.TPGenPrefix + "_osc")
	fb := m.AddNet(ctrlnet.TPGenPrefix + "_fb")
	src := gate(ctrlnet.TPSrcName, norCell)
	m.MustConnect(src, "A", rst)
	m.MustConnect(src, "B", fb)
	m.MustConnect(src, "Z", osc)
	if err := handshake.AddSymmetricDelayElement(m, lib, ctrlnet.TPRingPrefix, osc, fb, res.RingLevels); err != nil {
		return err
	}

	// Phase splitter: cross-coupled NORs on the oscillation and its
	// inverse. Each NOR's second input is the opposite phase through a
	// non-overlap chain, so a phase can only rise NovLevels stages after
	// the other has fallen.
	oscn := m.AddNet(ctrlnet.TPGenPrefix + "_oscn")
	inv := gate(ctrlnet.TPInvName, invCell)
	m.MustConnect(inv, "A", osc)
	m.MustConnect(inv, "Z", oscn)

	phi1 := m.AddNet(ctrlnet.TPGenPrefix + "_phi1")
	phi2 := m.AddNet(ctrlnet.TPGenPrefix + "_phi2")
	d1 := m.AddNet(ctrlnet.TPGenPrefix + "_d1")
	d2 := m.AddNet(ctrlnet.TPGenPrefix + "_d2")
	p1 := gate(ctrlnet.TPPhase1Name, norCell)
	m.MustConnect(p1, "A", oscn)
	m.MustConnect(p1, "B", d2)
	m.MustConnect(p1, "Z", phi1)
	p2 := gate(ctrlnet.TPPhase2Name, norCell)
	m.MustConnect(p2, "A", osc)
	m.MustConnect(p2, "B", d1)
	m.MustConnect(p2, "Z", phi2)
	if err := handshake.AddSymmetricDelayElement(m, lib, ctrlnet.TPNov1Prefix, phi1, d1, res.NovLevels); err != nil {
		return err
	}
	if err := handshake.AddSymmetricDelayElement(m, lib, ctrlnet.TPNov2Prefix, phi2, d2, res.NovLevels); err != nil {
		return err
	}
	res.GenCells = 4 + res.RingLevels + 2*res.NovLevels

	// Per-region distribution: one clock buffer per phase per region, from
	// the phase root onto the enable nets the substitution created.
	regions := make([]int, 0, len(enables))
	for g := range enables {
		regions = append(regions, g)
	}
	sort.Ints(regions)
	res.Regions = regions
	for _, g := range regions {
		en := enables[g]
		tpm := gate(ctrlnet.TPDistName(g, true), distCell)
		tpm.Group = g
		m.MustConnect(tpm, "A", phi1)
		m.MustConnect(tpm, "Z", en.Master)
		tps := gate(ctrlnet.TPDistName(g, false), distCell)
		tps.Group = g
		m.MustConnect(tps, "A", phi2)
		m.MustConnect(tps, "Z", en.Slave)
		res.DistBufs += 2
	}

	res.Claim = &Claim{
		Regions:    append([]int(nil), regions...),
		RingLevels: res.RingLevels,
		NovLevels:  res.NovLevels,
	}
	writeConstraints(m, res)
	return nil
}

// writeConstraints emits the backend SDC: Phi1/Phi2 as derived clocks on
// the splitter outputs with waveforms that spell out the non-overlap, the
// loop-breaking arcs for the ring and the cross-coupling, and size-only
// markers on every delay-matched generator cell.
func writeConstraints(m *netlist.Module, res *Result) {
	c := res.Constraints
	p, h, gap := res.Period, res.HalfPeriod, res.NonOverlap
	c.Clocks = append(c.Clocks,
		sdc.Clock{Name: "Phi1", Period: p, Waveform: [2]float64{0, h - gap},
			Sources: []string{ctrlnet.TPPhase1Name + "/Z"}, OnPins: true},
		sdc.Clock{Name: "Phi2", Period: p, Waveform: [2]float64{h, p - gap},
			Sources: []string{ctrlnet.TPPhase2Name + "/Z"}, OnPins: true},
	)
	c.Disabled = append(c.Disabled,
		sdc.DisabledArc{Inst: ctrlnet.TPSrcName, From: "B", To: "Z"},
		sdc.DisabledArc{Inst: ctrlnet.TPPhase1Name, From: "B", To: "Z"},
		sdc.DisabledArc{Inst: ctrlnet.TPPhase2Name, From: "B", To: "Z"},
	)
	for _, in := range m.Insts {
		if in.SizeOnly {
			c.SizeOnly = append(c.SizeOnly, in.Name)
		}
		if in.Group < 0 {
			if g, ok := ctrlnet.Region(in.Name); ok {
				in.Group = g
			}
		}
	}
	sort.Strings(c.SizeOnly)
}
