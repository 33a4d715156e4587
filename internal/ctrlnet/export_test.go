package ctrlnet

import "desync/internal/netlist"

// RefDerive runs the reference derivation for the external tests: the
// network and its latch index.
func RefDerive(m *netlist.Module) (*Network, func(*netlist.Inst) *Latch) {
	n, latchOf := refDerive(m)
	return n, func(in *netlist.Inst) *Latch { return latchOf[in] }
}
