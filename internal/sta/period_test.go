package sta_test

import (
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/dft"
	"desync/internal/netlist"
	"desync/internal/sta"
	"desync/internal/stdcells"
)

// TestClockPeriodPinned pins ClockPeriod, with each caller's preparation,
// corner and margin, to the period that caller derived before the helper
// existed (the worst region budget times its margin, spelled out inline),
// so every derived period and every SDC built from one stays bit-identical.
func TestClockPeriodPinned(t *testing.T) {
	hs := func() *netlist.Library { return stdcells.New(stdcells.HighSpeed) }
	cleaned := func(d *netlist.Design, err error) (*netlist.Design, error) {
		if err == nil {
			core.CleanLogic(d.Top)
		}
		return d, err
	}
	dlx := func() (*netlist.Design, error) { return cleaned(designs.BuildDLX(hs(), designs.TestProgram())) }
	arm := func() (*netlist.Design, error) {
		d, err := designs.BuildARMLike(stdcells.New(stdcells.LowLeakage), 42)
		if err != nil {
			return nil, err
		}
		if _, err := dft.InsertScan(d); err != nil {
			return nil, err
		}
		return cleaned(d, nil)
	}
	fir := func() (*netlist.Design, error) { return cleaned(designs.BuildFIR(hs())) }
	pipeline := func() (*netlist.Design, error) {
		return cleaned(designs.ParseSpec("pipeline:depth=4,width=8,regions=6", nil))
	}

	for _, tc := range []struct {
		name   string
		build  func() (*netlist.Design, error)
		corner netlist.Corner
		margin float64
		want   float64
	}{
		{"dlx/worst", dlx, netlist.Worst, 1.05, 4.650975},
		{"dlx/best", dlx, netlist.Best, 1.05, 1.8603900000000007},
		{"arm", arm, netlist.Worst, 1.05, 12.823860000000005},
		{"fir", fir, netlist.Worst, 1.15, 3.519000000000001},
		{"pipeline", pipeline, netlist.Worst, 1.15, 0.9277625},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := sta.ClockPeriod(context.Background(), d.Top, tc.corner, sta.Options{}, tc.margin)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("ClockPeriod = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestClockPeriodNoRegisters: a purely combinational module has no
// launch-to-capture budget, so there is no period to derive.
func TestClockPeriodNoRegisters(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	m := netlist.NewModule("comb")
	a := m.AddPort("a", netlist.In).Net
	b := m.AddPort("b", netlist.In).Net
	z := m.AddPort("z", netlist.Out).Net
	and := m.AddInst("g", lib.MustCell("AND2X1"))
	m.MustConnect(and, "A", a)
	m.MustConnect(and, "B", b)
	m.MustConnect(and, "Z", z)
	if p, err := sta.ClockPeriod(context.Background(), m, netlist.Worst, sta.Options{}, 1.05); err == nil {
		t.Fatalf("ClockPeriod = %v on a module without registers, want an error", p)
	}
}
