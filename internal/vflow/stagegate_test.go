package vflow

import (
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/netlist"
)

// corruption breaks a module through the netlist mutators, as a faulty
// flow stage would.
type corruption struct {
	name  string
	apply func(t *testing.T, m *netlist.Module)
}

// firstGate returns the first plain combinational gate with two inputs in
// module order.
func firstGate(t *testing.T, m *netlist.Module) *netlist.Inst {
	t.Helper()
	for _, in := range m.Insts {
		if in.Cell != nil && in.Cell.Kind == netlist.KindComb && len(in.Cell.Inputs()) == 2 && in.Origin == "" {
			return in
		}
	}
	t.Fatal("no two-input combinational gate")
	return nil
}

var corruptions = []corruption{
	{"multi-driven net", func(t *testing.T, m *netlist.Module) {
		// A second gate output on a driven net: Connect refuses to make it
		// the net's driver but keeps the connection.
		g := firstGate(t, m)
		z := g.Conn(g.Cell.Outputs()[0])
		extra := m.AddInst("corrupt_drv", g.Cell)
		for _, pin := range g.Cell.Inputs() {
			m.MustConnect(extra, pin, g.Conn(pin))
		}
		_ = m.Connect(extra, g.Cell.Outputs()[0], z)
	}},
	{"combinational loop", func(t *testing.T, m *netlist.Module) {
		g := firstGate(t, m)
		pin := g.Cell.Inputs()[0]
		m.Disconnect(g, pin)
		m.MustConnect(g, pin, g.Conn(g.Cell.Outputs()[0]))
	}},
	{"unconnected input", func(t *testing.T, m *netlist.Module) {
		g := firstGate(t, m)
		m.Disconnect(g, g.Cell.Inputs()[1])
	}},
}

// TestCorruptedStageFailsAtItsBoundary corrupts the module as the flow
// enters Clean, and again as it enters Substitute, and requires the run to
// fail at that stage's own boundary with the same message as when every
// boundary ran the full NL-* family: narrowing the mid-flow gates to the
// Error rules, and not relinting an unchanged state, must not move or
// reword a failure.
func TestCorruptedStageFailsAtItsBoundary(t *testing.T) {
	const (
		multi = "pipeline: corrupt_drv/Z drives net n1 but the net records driver u2_AND2X1/Z (and 0 more)"
		loop  = "lint: 1 error(s), first: error NL-LOOP pipeline inst=u2_AND2X1: combinational loop through 1 gate(s): u2_AND2X1"
		pin   = "lint: 1 error(s), first: error NL-PIN pipeline inst=u2_AND2X1: pin B (input) is unconnected"
	)
	want := map[string]string{
		"multi-driven net":   "(post-stage validation): " + multi,
		"combinational loop": "(post-stage lint): " + loop,
		"unconnected input":  "(post-stage lint): " + pin,
	}
	for _, stage := range []string{core.StageClean, core.StageSubstitute} {
		for _, c := range corruptions {
			t.Run(stage+"/"+c.name, func(t *testing.T) {
				var d *netlist.Design
				build := func() (*netlist.Design, error) {
					var err error
					d, err = fromSpec("pipeline:depth=4,width=8,regions=6")()
					return d, err
				}
				opts := Options{Flow: core.Options{Period: 2, Progress: func(s string) {
					if s == stage {
						c.apply(t, d.Top)
					}
				}}}
				_, err := Run(context.Background(), build, opts)
				msg := "core: pipeline: stage " + stage + " " + want[c.name]
				if err == nil || err.Error() != msg || core.StageOf(err) != stage {
					t.Fatalf("err = %v\nwant %s", err, msg)
				}
			})
		}
	}
}
