package sta_test

import (
	"context"
	"reflect"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/expt"
	"desync/internal/netlist"
	"desync/internal/sta"
	"desync/internal/stdcells"
)

// TestBuildAllocsPerNode guards the dense node table: building a graph
// allocates a bounded number of tables, not objects per pin or per arc.
func TestBuildAllocsPerNode(t *testing.T) {
	d, err := designs.ParseSpec("pipeline:depth=48,width=64,regions=4", nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sta.Build(d.Top, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.NodeCount()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sta.Build(d.Top, sta.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if perNode := allocs / float64(nodes); perNode >= 1 {
		t.Fatalf("Build allocates %.0f objects for %d nodes (%.2f per node), want under 1 per node",
			allocs, nodes, perNode)
	}
}

// TestNodeIDUnheldInstances: NodeID answers -1 for an instance the graph
// was not built over, both for an instance of another module whose InstID
// falls inside the graph's range and for one added after Build.
func TestNodeIDUnheldInstances(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	chain := func(name string) *netlist.Module {
		m := netlist.NewModule(name)
		prev := m.AddPort("in", netlist.In).Net
		for _, n := range []string{"a", "b"} {
			inv := m.AddInst(n, lib.MustCell("INVX1"))
			m.MustConnect(inv, "A", prev)
			prev = m.AddNet(n + "_z")
			m.MustConnect(inv, "Z", prev)
		}
		return m
	}
	m, other := chain("m"), chain("other")
	g, err := sta.Build(m, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeID(m.Inst("b"), "A") < 0 {
		t.Fatal("NodeID misses a pin of a held instance")
	}
	foreign := other.Inst("b")
	if foreign.ID() != m.Inst("b").ID() {
		t.Fatalf("fixture: foreign instance has InstID %d, want the held one's %d", foreign.ID(), m.Inst("b").ID())
	}
	if id := g.NodeID(foreign, "A"); id != -1 {
		t.Fatalf("NodeID of another module's instance = %d, want -1", id)
	}
	late := m.AddInst("late", lib.MustCell("INVX1"))
	m.MustConnect(late, "A", m.Net("b_z"))
	if id := g.NodeID(late, "A"); id != -1 {
		t.Fatalf("NodeID of an instance added after Build = %d, want -1", id)
	}
}

// TestResultRegionDelaysMatchesPackage: with DS-MARGIN's options (the
// flow's disabled arcs plus AutoBreakLoops), region delays over an analysis
// the caller already holds equal the package function's own build.
func TestResultRegionDelaysMatchesPackage(t *testing.T) {
	flows := []struct {
		name string
		run  func() (*netlist.Design, *core.Result, error)
	}{
		{"dlx", func() (*netlist.Design, *core.Result, error) {
			f, err := expt.RunFlow("dlx", expt.FlowConfig{})
			if err != nil {
				return nil, nil, err
			}
			return f.Design, f.Result, nil
		}},
		{"fir", func() (*netlist.Design, *core.Result, error) {
			f, err := expt.RunFlow("fir", expt.FlowConfig{})
			if err != nil {
				return nil, nil, err
			}
			return f.Design, f.Result, nil
		}},
		{"pipeline", func() (*netlist.Design, *core.Result, error) {
			f, err := expt.RunFlow("pipeline:depth=4,width=8,regions=6", expt.FlowConfig{})
			if err != nil {
				return nil, nil, err
			}
			return f.Design, f.Result, nil
		}},
	}
	ctx := context.Background()
	for _, tc := range flows {
		t.Run(tc.name, func(t *testing.T) {
			d, res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			opts := sta.Options{Corner: netlist.Worst, AutoBreakLoops: true, Disabled: res.DisabledArcMap()}
			want, err := sta.RegionDelays(ctx, d.Top, netlist.Worst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) < 2 {
				t.Fatalf("%d regions timed, want a multi-region design", len(want))
			}
			g, err := sta.Build(d.Top, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.Analyze().RegionDelays(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("(*Result).RegionDelays differs from RegionDelays:\n got %v\nwant %v", got, want)
			}

			opts.LatchTransparent = true
			gt, err := sta.Build(d.Top, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gt.Analyze().RegionDelays(ctx); err == nil {
				t.Fatal("RegionDelays over a LatchTransparent graph succeeded, want an error")
			}
		})
	}
}
