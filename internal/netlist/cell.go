// Package netlist defines the in-memory representation of technology
// libraries and gate-level designs used by every stage of the
// desynchronization flow: library cells with functions and timing, and flat
// or hierarchical netlists of instances connected by nets.
package netlist

import (
	"fmt"

	"desync/internal/logic"
)

// PinDir is the direction of a cell or module pin.
type PinDir uint8

// Pin directions.
const (
	In PinDir = iota
	Out
	InOut
)

// String returns the Verilog keyword for the direction.
func (d PinDir) String() string {
	switch d {
	case In:
		return "input"
	case Out:
		return "output"
	}
	return "inout"
}

// PinClass describes the role a pin plays on a sequential or special cell.
// Combinational data pins use ClassData.
type PinClass uint8

// Pin classes.
const (
	ClassData       PinClass = iota
	ClassClock               // FF clock / trigger
	ClassEnable              // latch enable
	ClassAsyncSet            // asynchronous set (active high after normalization)
	ClassAsyncReset          // asynchronous reset
	ClassScanIn              // scan data in
	ClassScanEnable          // scan enable
	ClassOutput              // data output (Q)
	ClassOutputN             // inverted data output (QN)
)

// PinDef describes one pin of a library cell.
type PinDef struct {
	Name  string
	Dir   PinDir
	Class PinClass
	Cap   float64 // input pin capacitance in pF (load model for timing)
}

// CellKind is the coarse classification of a library cell, mirroring the
// "type" column of the paper's gatefile (§3.1.1).
type CellKind uint8

// Cell kinds.
const (
	KindComb  CellKind = iota // combinational gate
	KindFF                    // edge-triggered flip-flop
	KindLatch                 // level-sensitive latch
	KindCElem                 // C-Muller (rendezvous) element
	KindGC                    // generalized C element (set/reset functions)
	KindTie                   // constant driver (TIE0/TIE1)
)

// String names the cell kind as in the gatefile.
func (k CellKind) String() string {
	switch k {
	case KindComb:
		return "comb"
	case KindFF:
		return "ff"
	case KindLatch:
		return "latch"
	case KindCElem:
		return "celem"
	case KindGC:
		return "gc"
	case KindTie:
		return "tie"
	}
	return "?"
}

// Delay is a pin-to-pin propagation delay in nanoseconds at the two library
// corners. The best corner (fast process, high voltage, low temperature) is
// index 0; the worst corner is index 1. The paper's library has no typical
// corner (§5 footnote), and neither does ours.
type Delay struct {
	Best, Worst float64
}

// At returns the delay at the given corner.
func (d Delay) At(c Corner) float64 {
	if c == Best {
		return d.Best
	}
	return d.Worst
}

// Scale returns the delay multiplied by k at both corners.
func (d Delay) Scale(k float64) Delay { return Delay{d.Best * k, d.Worst * k} }

// Corner selects a library characterization corner.
type Corner uint8

// The two characterized corners.
const (
	Best  Corner = 0
	Worst Corner = 1
)

// String names the corner.
func (c Corner) String() string {
	if c == Best {
		return "best"
	}
	return "worst"
}

// TimingArc is a combinational propagation arc from an input pin to an
// output pin with separate rise and fall delays (asymmetric delay elements
// rely on the distinction, §3.1.4).
type TimingArc struct {
	From, To   string
	Rise, Fall Delay // delay to a rising / falling transition of To
}

// SeqSpec describes the sequential behaviour of a flip-flop or latch cell in
// enough detail for simulation and for the flip-flop substitution rules of
// §3.1.2: the next-state function (which already folds in scan muxing,
// synchronous set/reset and clock gating), the control pins, and optional
// asynchronous set/reset.
type SeqSpec struct {
	Next          *logic.Expr // next-state function over input pin names
	ClockPin      string      // KindFF: rising-edge trigger; KindLatch: transparent-high enable
	AsyncSet      string      // pin forcing Q=1 immediately ("" if none)
	AsyncReset    string      // pin forcing Q=0 immediately ("" if none)
	AsyncSetLow   bool        // AsyncSet pin is active low
	AsyncResetLow bool        // AsyncReset pin is active low
	ScanIn        string      // scan data pin ("" if not a scan cell)
	ScanEnable    string      // scan enable pin
	ClockGate     string      // clock-gating enable pin CEN ("" if none); clock is effective only while high
	Q             string      // data output pin
	QN            string      // inverted output pin ("" if none)
}

// GCSpec describes a generalized C element: the output rises when Set
// evaluates true, falls when Reset evaluates true, and holds otherwise. A
// plain C-Muller element is the special case Set = AND(inputs),
// Reset = AND(!inputs).
type GCSpec struct {
	Set, Reset *logic.Expr
	Q          string
}

// CellDef is one library cell: its interface, function, physical properties
// and timing. Delay and power numbers come from the Liberty view
// (internal/liberty) or from the built-in libraries (internal/stdcells).
type CellDef struct {
	Name string
	Kind CellKind
	Pins []PinDef

	Area    float64 // µm²
	Leakage Delay   // leakage power in µW at best/worst corner (reuses Delay as a per-corner pair)
	Energy  float64 // dynamic energy per output transition, pJ

	// Functions maps each output pin of a combinational cell to its boolean
	// function over input pin names. Sequential cells instead use Seq; C
	// elements use GC.
	Functions map[string]*logic.Expr
	Seq       *SeqSpec
	GC        *GCSpec

	Arcs  []TimingArc
	Setup Delay // setup requirement of sequential cells (data before clock/enable closing edge)
	Hold  Delay // hold requirement

	pinIdx map[string]int
}

// Pin returns the definition of the named pin, or nil.
func (c *CellDef) Pin(name string) *PinDef {
	if c.pinIdx == nil {
		c.pinIdx = make(map[string]int, len(c.Pins))
		for i := range c.Pins {
			c.pinIdx[c.Pins[i].Name] = i
		}
	}
	if i, ok := c.pinIdx[name]; ok {
		return &c.Pins[i]
	}
	return nil
}

// Inputs returns the names of all input pins in declaration order.
func (c *CellDef) Inputs() []string {
	var out []string
	for _, p := range c.Pins {
		if p.Dir == In {
			out = append(out, p.Name)
		}
	}
	return out
}

// Outputs returns the names of all output pins in declaration order.
func (c *CellDef) Outputs() []string {
	var out []string
	for _, p := range c.Pins {
		if p.Dir == Out {
			out = append(out, p.Name)
		}
	}
	return out
}

// IsSequential reports whether the cell stores state (FF, latch, C element).
func (c *CellDef) IsSequential() bool {
	switch c.Kind {
	case KindFF, KindLatch, KindCElem, KindGC:
		return true
	}
	return false
}

// IsBufferLike reports whether the cell is a buffer or inverter: exactly one
// input, one output, and the function is the input or its negation. Logic
// cleaning (§3.2.2) removes such cells before grouping.
func (c *CellDef) IsBufferLike() (inverting, ok bool) {
	if c.Kind != KindComb {
		return false, false
	}
	ins, outs := c.Inputs(), c.Outputs()
	if len(ins) != 1 || len(outs) != 1 {
		return false, false
	}
	f := c.Functions[outs[0]]
	if f == nil {
		return false, false
	}
	switch {
	case f.Op == logic.OpVar && f.Name == ins[0]:
		return false, true
	case f.Op == logic.OpNot && f.Child[0].Op == logic.OpVar && f.Child[0].Name == ins[0]:
		return true, true
	}
	return false, false
}

// Arc returns the timing arc from input pin from to output pin to, or nil.
func (c *CellDef) Arc(from, to string) *TimingArc {
	for i := range c.Arcs {
		if c.Arcs[i].From == from && c.Arcs[i].To == to {
			return &c.Arcs[i]
		}
	}
	return nil
}

// Library is a set of cells plus identification of the technology node and
// variant (High-Speed vs Low-Leakage, §5).
type Library struct {
	Name    string
	Variant string // "HS" or "LL"
	Cells   map[string]*CellDef
}

// NewLibrary returns an empty library.
func NewLibrary(name, variant string) *Library {
	return &Library{Name: name, Variant: variant, Cells: map[string]*CellDef{}}
}

// Add inserts the cell, panicking on duplicate names (library construction
// is programmatic; a duplicate is a programming error).
func (l *Library) Add(c *CellDef) *CellDef {
	if _, dup := l.Cells[c.Name]; dup {
		panic(fmt.Sprintf("netlist: duplicate cell %q in library %s", c.Name, l.Name))
	}
	l.Cells[c.Name] = c
	return c
}

// Cell returns the named cell or an error.
func (l *Library) Cell(name string) (*CellDef, error) {
	c, ok := l.Cells[name]
	if !ok {
		return nil, fmt.Errorf("netlist: library %s has no cell %q", l.Name, name)
	}
	return c, nil
}

// MustCell returns the named cell, panicking if absent.
func (l *Library) MustCell(name string) *CellDef {
	c, err := l.Cell(name)
	if err != nil {
		panic(err)
	}
	return c
}
