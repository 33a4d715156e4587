// Package designs generates the gate-level case-study circuits of §5: a
// four-stage DLX RISC processor (Fig 5.2) and an ARM-class 32-bit scan
// design. The paper starts from post-synthesis netlists produced by a
// commercial synthesis tool; these generators play that role, emitting flat
// mapped netlists over the internal/stdcells libraries.
package designs

import (
	"fmt"

	"desync/internal/netlist"
)

// Builder wraps a module with gate-level construction helpers. Generated
// instance names carry a running index under a caller-chosen prefix.
type Builder struct {
	M   *netlist.Module
	Lib *netlist.Library
	n   int
}

// NewBuilder returns a builder over a fresh flat module.
func NewBuilder(name string, lib *netlist.Library) *Builder {
	return &Builder{M: netlist.NewModule(name), Lib: lib}
}

// recoverBuildErr converts a construction panic (wrong pin count, unknown
// cell, duplicate name) into the Build* function's returned error, so the
// generators stay usable as a library. Deferred by every Build* entry point.
func recoverBuildErr(design string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("designs: %s construction: %v", design, r)
	}
}

// Bus is an ordered list of single-bit nets, LSB first.
type Bus []*netlist.Net

// NewBus declares a named bus of fresh nets base[0..width-1].
func (b *Builder) NewBus(base string, width int) Bus {
	out := make(Bus, width)
	for i := range out {
		out[i] = b.M.AddNet(fmt.Sprintf("%s[%d]", base, i))
	}
	return out
}

// InputBus declares an input port bus.
func (b *Builder) InputBus(base string, width int) Bus {
	out := make(Bus, width)
	for i := range out {
		out[i] = b.M.AddPort(fmt.Sprintf("%s[%d]", base, i), netlist.In).Net
	}
	return out
}

// OutputBus declares an output port bus.
func (b *Builder) OutputBus(base string, width int) Bus {
	out := make(Bus, width)
	for i := range out {
		out[i] = b.M.AddPort(fmt.Sprintf("%s[%d]", base, i), netlist.Out).Net
	}
	return out
}

// Gate instantiates a named library cell with positional nets matching the
// cell's pin order and returns the instance.
func (b *Builder) Gate(cell string, nets ...*netlist.Net) *netlist.Inst {
	c := b.Lib.MustCell(cell)
	b.n++
	in := b.M.AddInst(fmt.Sprintf("u%d_%s", b.n, cell), c)
	if len(nets) != len(c.Pins) {
		panic(fmt.Sprintf("designs: %s takes %d nets, got %d", cell, len(c.Pins), len(nets)))
	}
	for i, p := range c.Pins {
		if nets[i] != nil {
			b.M.MustConnect(in, p.Name, nets[i])
		}
	}
	return in
}

// fresh returns an anonymous intermediate net.
func (b *Builder) fresh() *netlist.Net {
	b.n++
	return b.M.AddNet(fmt.Sprintf("n%d", b.n))
}

// Tie returns the constant net for v, creating the tie cell on first use.
func (b *Builder) Tie(v int) *netlist.Net {
	name := "const0"
	cell := "TIE0"
	if v != 0 {
		name, cell = "const1", "TIE1"
	}
	if n := b.M.Net(name); n != nil {
		return n
	}
	n := b.M.AddNet(name)
	b.Gate(cell, n)
	return n
}

// Unary and binary gate helpers returning the output net.

// Not returns !a.
func (b *Builder) Not(a *netlist.Net) *netlist.Net {
	z := b.fresh()
	b.Gate("INVX1", a, z)
	return z
}

// And returns a&b.
func (b *Builder) And(a, c *netlist.Net) *netlist.Net {
	z := b.fresh()
	b.Gate("AND2X1", a, c, z)
	return z
}

// Or returns a|b.
func (b *Builder) Or(a, c *netlist.Net) *netlist.Net {
	z := b.fresh()
	b.Gate("OR2X1", a, c, z)
	return z
}

// Xor returns a^b.
func (b *Builder) Xor(a, c *netlist.Net) *netlist.Net {
	z := b.fresh()
	b.Gate("XOR2X1", a, c, z)
	return z
}

// Mux returns s ? hi : lo.
func (b *Builder) Mux(lo, hi, s *netlist.Net) *netlist.Net {
	z := b.fresh()
	b.Gate("MUX2X1", lo, hi, s, z)
	return z
}

// AndTree reduces nets with a balanced AND tree.
func (b *Builder) AndTree(ns []*netlist.Net) *netlist.Net {
	return b.tree(ns, b.And)
}

// OrTree reduces nets with a balanced OR tree.
func (b *Builder) OrTree(ns []*netlist.Net) *netlist.Net {
	return b.tree(ns, b.Or)
}

func (b *Builder) tree(ns []*netlist.Net, op func(a, c *netlist.Net) *netlist.Net) *netlist.Net {
	if len(ns) == 0 {
		panic("designs: empty reduction")
	}
	for len(ns) > 1 {
		var next []*netlist.Net
		for i := 0; i < len(ns); i += 2 {
			if i+1 == len(ns) {
				next = append(next, ns[i])
			} else {
				next = append(next, op(ns[i], ns[i+1]))
			}
		}
		ns = next
	}
	return ns[0]
}

// MuxBus returns s ? hi : lo bitwise, writing into dst when non-nil.
func (b *Builder) MuxBus(lo, hi Bus, s *netlist.Net, dst Bus) Bus {
	if len(lo) != len(hi) {
		panic("designs: mux width mismatch")
	}
	out := dst
	if out == nil {
		out = make(Bus, len(lo))
	}
	for i := range lo {
		if out[i] == nil {
			out[i] = b.fresh()
		}
		b.Gate("MUX2X1", lo[i], hi[i], s, out[i])
	}
	return out
}

// MuxTree selects inputs[sel] over a power-of-two input list using the
// select bus (LSB first). Short input lists are padded with the last entry.
func (b *Builder) MuxTree(inputs []Bus, sel Bus) Bus {
	if len(inputs) == 0 {
		panic("designs: empty mux tree")
	}
	level := append([]Bus(nil), inputs...)
	for k := 0; k < len(sel); k++ {
		if len(level) == 1 {
			break
		}
		var next []Bus
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			next = append(next, b.MuxBus(level[i], level[i+1], sel[k], nil))
		}
		level = next
	}
	return level[0]
}

// Adder builds a ripple-carry adder: sum = a + c + cin (cin may be nil for
// 0). The carry-out is not built: no design consumes it, and the dead
// final-bit carry cone would (rightly) trip the NL-CONE lint rule.
func (b *Builder) Adder(a, c Bus, cin *netlist.Net) Bus {
	if len(a) != len(c) {
		panic("designs: adder width mismatch")
	}
	sum := make(Bus, len(a))
	carry := cin
	last := len(a) - 1
	for i := range a {
		axb := b.Xor(a[i], c[i])
		if carry == nil {
			sum[i] = axb
			if i != last {
				carry = b.And(a[i], c[i])
			}
			continue
		}
		sum[i] = b.Xor(axb, carry)
		if i == last {
			break
		}
		// carry' = a&c | carry&(a^c)
		carry = b.Or(b.And(a[i], c[i]), b.And(carry, axb))
	}
	return sum
}

// Sub builds a - c via two's complement (a + ~c + 1).
func (b *Builder) Sub(a, c Bus) Bus {
	nc := make(Bus, len(c))
	for i := range c {
		nc[i] = b.Not(c[i])
	}
	return b.Adder(a, nc, b.Tie(1))
}

// Inc builds a + 1.
func (b *Builder) Inc(a Bus) Bus {
	sum := make(Bus, len(a))
	carry := (*netlist.Net)(nil)
	for i := range a {
		if i == 0 {
			sum[0] = b.Not(a[0])
			carry = a[0]
			continue
		}
		sum[i] = b.Xor(a[i], carry)
		if i < len(a)-1 {
			carry = b.And(a[i], carry)
		}
	}
	return sum
}

// IsZero returns a net that is high when the whole bus is zero.
func (b *Builder) IsZero(a Bus) *netlist.Net {
	any := b.OrTree(a)
	return b.Not(any)
}

// EqConst returns a net that is high when the bus equals the constant.
func (b *Builder) EqConst(a Bus, v uint64) *netlist.Net {
	terms := make([]*netlist.Net, len(a))
	for i := range a {
		if v>>uint(i)&1 == 1 {
			terms[i] = a[i]
		} else {
			terms[i] = b.Not(a[i])
		}
	}
	return b.AndTree(terms)
}

// BitwiseOp applies a 2-input cell bitwise across two buses.
func (b *Builder) BitwiseOp(cell string, a, c Bus) Bus {
	out := make(Bus, len(a))
	for i := range a {
		out[i] = b.fresh()
		b.Gate(cell, a[i], c[i], out[i])
	}
	return out
}

// RegBank instantiates a bank of async-reset flip-flops named
// "<name>[i]" capturing d into the named q bus.
func (b *Builder) RegBank(name string, d Bus, clk, rstn *netlist.Net, qBase string) Bus {
	q := b.NewBus(qBase, len(d))
	for i := range d {
		ff := b.M.AddInst(fmt.Sprintf("%s[%d]", name, i), b.Lib.MustCell("DFFRQX1"))
		b.M.MustConnect(ff, "D", d[i])
		b.M.MustConnect(ff, "CK", clk)
		b.M.MustConnect(ff, "RN", rstn)
		b.M.MustConnect(ff, "Q", q[i])
	}
	return q
}

// Rom builds a combinational lookup table: out = words[addr], with
// constant-folded multiplexer trees. Addresses beyond len(words) read 0.
// The outputs are written onto dst (one net per bit).
func (b *Builder) Rom(addr Bus, words []uint64, width int, dst Bus) {
	depth := 1 << len(addr)
	for bit := 0; bit < width; bit++ {
		b.romBit(addr, words, bit, 0, depth, dst[bit])
	}
}

// romBit recursively builds one output bit over addr[level...].
func (b *Builder) romBit(addr Bus, words []uint64, bit, base, span int, dst *netlist.Net) {
	v, constant := romConst(words, bit, base, span)
	if constant {
		b.aliasConst(dst, v)
		return
	}
	half := span / 2
	level := 0
	for 1<<level < span {
		level++
	}
	selBit := addr[level-1]
	lo, hi := b.fresh(), b.fresh()
	b.romBitInner(addr, words, bit, base, half, lo)
	b.romBitInner(addr, words, bit, base+half, half, hi)
	b.Gate("MUX2X1", lo, hi, selBit, dst)
}

func (b *Builder) romBitInner(addr Bus, words []uint64, bit, base, span int, dst *netlist.Net) {
	v, constant := romConst(words, bit, base, span)
	if constant {
		// Replace the fresh net's role with the constant by buffering it —
		// a tie-driven buffer keeps single-driver discipline simple here;
		// the cleaner removes it if desynchronization follows.
		b.Gate("BUFX1", b.Tie(v), dst)
		return
	}
	b.romBit(addr, words, bit, base, span, dst)
}

func (b *Builder) aliasConst(dst *netlist.Net, v int) {
	b.Gate("BUFX1", b.Tie(v), dst)
}

// romConst reports whether words[base:base+span] bit is constant.
func romConst(words []uint64, bit, base, span int) (int, bool) {
	get := func(i int) int {
		if i >= len(words) {
			return 0
		}
		return int(words[i] >> uint(bit) & 1)
	}
	v := get(base)
	for i := base + 1; i < base+span; i++ {
		if get(i) != v {
			return 0, false
		}
	}
	return v, true
}

// Decoder builds a one-hot decoder of the address bus; out[i] is high when
// addr == i.
func (b *Builder) Decoder(addr Bus) []*netlist.Net {
	n := 1 << len(addr)
	out := make([]*netlist.Net, n)
	for i := 0; i < n; i++ {
		out[i] = b.EqConst(addr, uint64(i))
	}
	return out
}
