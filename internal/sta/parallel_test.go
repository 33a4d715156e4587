package sta

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"desync/internal/netlist"
)

// regionFixture builds a module with n regions, region g holding a chain of
// g AND gates into one flip-flop, so RegionDelays has distinct per-region
// work to fan out and distinct answers to compare.
func regionFixture(t *testing.T, n int) *netlist.Module {
	t.Helper()
	lib := hs()
	m := netlist.NewModule("m")
	m.AddPort("ck", netlist.In)
	m.AddPort("in", netlist.In)
	for g := 1; g <= n; g++ {
		prev := m.Net("in")
		for i := 0; i < g; i++ {
			z := m.AddNet(nodeName(10*g + i))
			and := m.AddInst(nodeName(10*g+i)+"_g", lib.MustCell("AND2X1"))
			and.Group = g
			m.MustConnect(and, "A", prev)
			m.MustConnect(and, "B", m.Net("in"))
			m.MustConnect(and, "Z", z)
			prev = z
		}
		ff := m.AddInst(nodeName(10*g)+"_f", lib.MustCell("DFFQX1"))
		ff.Group = g
		m.MustConnect(ff, "D", prev)
		m.MustConnect(ff, "CK", m.Net("ck"))
		m.MustConnect(ff, "Q", m.AddNet(nodeName(10*g)+"_q"))
		m.MustConnect(ff, "QN", m.AddNet(nodeName(10*g)+"_qn"))
	}
	return m
}

// TestRegionDelaysParallelDeterministic: per-region extraction at any
// GOMAXPROCS returns exactly the serial result.
func TestRegionDelaysParallelDeterministic(t *testing.T) {
	m := regionFixture(t, 6)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := RegionDelays(context.Background(), m, netlist.Worst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 6 {
		t.Fatalf("fixture produced %d regions, want 6", len(serial))
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		par, err := RegionDelays(context.Background(), m, netlist.Worst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("GOMAXPROCS %d region delays differ from serial", procs)
		}
	}
}

// TestRegionDelaysCancellation: a canceled context aborts the extraction.
func TestRegionDelaysCancellation(t *testing.T) {
	m := regionFixture(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if _, err := RegionDelays(ctx, m, netlist.Worst, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
