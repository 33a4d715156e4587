// Package core implements drdesync, the desynchronization tool of the
// paper: it converts a post-synthesis synchronous gate-level netlist into a
// flow-equivalent asynchronous one. The pipeline mirrors §3.2: design
// import and cleanup, logic cleaning, automatic region creation (the
// grouping algorithm of Fig 3.4), flip-flop substitution (Fig 3.1),
// data-dependency-graph construction, matched delay-element sizing via STA,
// controller-network insertion and export with backend timing constraints
// (Fig 4.2, §4.5–4.6).
package core

import (
	"desync/internal/netlist"
)

// CleanLogic removes signal-buffering cells so that the grouping algorithm
// sees only true data dependencies (§3.2.2, Fig 3.5): non-inverting buffers
// are bypassed, and inverter pairs in series collapse. Nets bound to module
// ports are preserved. Returns the number of removed cells. In an in-place
// optimization flow the removed buffering is not reinstated; the backend
// re-buffers as needed (§4.7).
func CleanLogic(m *netlist.Module) int {
	cells := bufferCells{}
	var insts []*netlist.Inst
	removed := 0
	for {
		changed := false
		// Each sweep removes up to O(n) buffers; batch the removals so the
		// Insts/Nets arrays compact once per sweep instead of splicing per
		// removal (quadratic on million-instance inputs).
		m.BeginBulk()
		// Pass 1: non-inverting buffers.
		insts = append(insts[:0], m.Insts...)
		for _, in := range insts {
			if b := cells.of(in); b.ok && !b.inv && bypassSingleInOut(m, in, b) {
				removed++
				changed = true
			}
		}
		// Pass 2: inverter pairs — an inverter whose entire fanout is a
		// single second inverter, with no port on the intermediate net.
		// Until EndBulk, m.Insts still holds this sweep's removed records,
		// which InstByID no longer resolves.
		insts = append(insts[:0], m.Insts...)
		for _, in := range insts {
			if m.InstByID(in.ID()) != in {
				continue // already removed this sweep
			}
			b := cells.of(in)
			if !b.ok || !b.inv {
				continue
			}
			mid := in.Conn(b.out)
			if mid == nil || isPortNet(m, mid) || len(mid.Sinks) != 1 {
				continue
			}
			second := mid.Sinks[0].Inst
			if second == nil {
				continue
			}
			b2 := cells.of(second)
			if !b2.ok || !b2.inv {
				continue
			}
			src := in.Conn(b.in)
			out := second.Conn(b2.out)
			if src == nil || out == nil {
				continue
			}
			m.RemoveInst(in)
			m.RemoveInst(second)
			m.ReplaceSinks(out, src)
			_ = m.RemoveNet(mid)
			_ = m.RemoveNet(out)
			removed += 2
			changed = true
		}
		m.EndBulk()
		if !changed {
			return removed
		}
	}
}

// bufferCell is what CleanLogic needs of one cell: whether it is a buffer
// or an inverter (CellDef.IsBufferLike), and if so its input and output pin.
type bufferCell struct {
	ok, inv bool
	in, out string
}

// bufferCells answers bufferCell once per cell rather than once per
// instance and sweep: IsBufferLike builds the cell's pin lists each call.
type bufferCells map[*netlist.CellDef]bufferCell

// of returns the instance's cell's answer; a submodule instance is no buffer.
func (c bufferCells) of(in *netlist.Inst) bufferCell {
	if in.Cell == nil {
		return bufferCell{}
	}
	b, seen := c[in.Cell]
	if !seen {
		if b.inv, b.ok = in.Cell.IsBufferLike(); b.ok {
			b.in, b.out = in.Cell.Inputs()[0], in.Cell.Outputs()[0]
		}
		c[in.Cell] = b
	}
	return b
}

// bypassSingleInOut removes a buffer, moving its output sinks onto its
// input net. Returns false when the move is unsafe (output net is a port
// while the buffer is its only driver — the port keeps the net, so the
// buffer stays only if input is also a port-driven... the sinks move and
// the port rebinds; unsafe only when input and output are both ports).
func bypassSingleInOut(m *netlist.Module, in *netlist.Inst, b bufferCell) bool {
	src := in.Conn(b.in)
	out := in.Conn(b.out)
	if src == nil || out == nil {
		return false
	}
	if isPortNet(m, out) && isPortNet(m, src) {
		// A buffer directly between two ports carries a real boundary; the
		// backend may need it. Leave it alone.
		return false
	}
	m.RemoveInst(in)
	// ReplaceSinks moves instance sinks and rebinds any port on out to src.
	m.ReplaceSinks(out, src)
	_ = m.RemoveNet(out)
	return true
}

func isPortNet(m *netlist.Module, n *netlist.Net) bool { return portOf(m, n) != nil }

func portOf(m *netlist.Module, n *netlist.Net) *netlist.Port {
	for _, p := range m.Ports {
		if p.Net == n {
			return p
		}
	}
	return nil
}
