package twophase_test

import (
	"context"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/lint"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/twophase"
	"desync/internal/verilog"
)

func convert(t *testing.T, spec string) (*netlist.Design, *core.Result) {
	t.Helper()
	d, err := designs.ParseSpec(spec, nil)
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", spec, err)
	}
	res, err := core.Convert(context.Background(), d, core.Options{
		Backend:      core.BackendTwoPhase,
		ManualGroups: designs.PreGrouped(spec),
	})
	if err != nil {
		t.Fatalf("Convert(%s, twophase): %v", spec, err)
	}
	return d, res
}

func TestConvertDLX(t *testing.T) {
	d, res := convert(t, "dlx")

	if res.Backend != core.BackendTwoPhase {
		t.Errorf("Result.Backend = %q, want %q", res.Backend, core.BackendTwoPhase)
	}
	tp, ok := res.BackendResult.(*twophase.Result)
	if !ok {
		t.Fatalf("BackendResult is %T, want *twophase.Result", res.BackendResult)
	}

	// The conversion removed every flip-flop and the clock port.
	for _, in := range d.Top.Insts {
		if in.Cell != nil && in.Cell.Kind == netlist.KindFF {
			t.Fatalf("flip-flop %s survived the twophase conversion", in.Name)
		}
	}
	if got := d.Top.Port("clk"); got != nil {
		t.Errorf("clock port survived the conversion")
	}
	if d.Top.Port(twophase.RstPortName) == nil {
		t.Errorf("no %s port on the converted design", twophase.RstPortName)
	}

	// The generator period covers the worst region budget.
	maxBudget := 0.0
	for _, rd := range res.RegionDelays {
		if b := rd.Budget(); b > maxBudget {
			maxBudget = b
		}
	}
	if tp.Period < maxBudget {
		t.Errorf("generator period %.3f < worst region budget %.3f", tp.Period, maxBudget)
	}
	if tp.NonOverlap <= 0 || tp.HalfPeriod < 2*tp.NonOverlap {
		t.Errorf("non-overlap %.3f does not fit the half-period %.3f", tp.NonOverlap, tp.HalfPeriod)
	}

	// Every region's enable pair is driven from the phase roots.
	if len(tp.Regions) == 0 || len(tp.Regions) != res.Grouping.Groups {
		t.Errorf("distribution covers regions %v, grouping made %d", tp.Regions, res.Grouping.Groups)
	}
	for _, g := range tp.Regions {
		en := res.Substitution.Enables[g]
		for _, n := range []*netlist.Net{en.Master, en.Slave} {
			if n.Driver.Inst == nil || n.Driver.Inst.Cell.Name != "CLKBUFX2" {
				t.Errorf("region %d enable %s not driven by a distribution buffer", g, n.Name)
			}
		}
	}

	// Constraints: both phase clocks, non-overlapping waveforms, and the
	// three loop-breaking arcs.
	if len(res.Constraints.Clocks) != 2 {
		t.Fatalf("got %d clocks, want Phi1 and Phi2", len(res.Constraints.Clocks))
	}
	phi1, phi2 := res.Constraints.Clocks[0], res.Constraints.Clocks[1]
	if phi1.Name != "Phi1" || phi2.Name != "Phi2" {
		t.Fatalf("clock names %s/%s", phi1.Name, phi2.Name)
	}
	if phi1.Waveform[1] >= phi2.Waveform[0] {
		t.Errorf("Phi1 falls at %.3f, Phi2 rises at %.3f: phases overlap",
			phi1.Waveform[1], phi2.Waveform[0])
	}
	if phi2.Waveform[1] >= phi2.Period {
		t.Errorf("Phi2 falls at %.3f past the period %.3f", phi2.Waveform[1], phi2.Period)
	}
	if len(res.Constraints.Disabled) != 3 {
		t.Errorf("got %d disabled arcs, want 3 (ring + both cross-couplings)", len(res.Constraints.Disabled))
	}
	text := res.Constraints.Write()
	for _, want := range []string{"Phi1", "Phi2", ctrlnet.TPSrcName, "set_size_only"} {
		if !strings.Contains(text, want) {
			t.Errorf("SDC text lacks %q", want)
		}
	}
}

// TestCaseStudiesLintClean runs the backend over every case study (DLX,
// the pre-grouped LL-library ARM, FIR) plus a parametric pipeline spec and
// requires the full TP-* lint family to pass against the generated
// constraints — the backend's acceptance bar.
func TestCaseStudiesLintClean(t *testing.T) {
	for _, spec := range []string{"dlx", "arm", "fir", "pipeline:depth=4,width=8,regions=6"} {
		d, res := convert(t, spec)
		rep := lint.Check(d.Top, lint.Options{TwoPhase: true, Constraints: res.Constraints})
		if n := rep.Errors(); n > 0 {
			t.Errorf("%s: %d lint errors, first: %s", spec, n, rep.Findings[0])
		}
		tp := res.BackendResult.(*twophase.Result)
		if len(tp.Regions) == 0 || tp.Period <= 0 {
			t.Errorf("%s: degenerate result: regions %v, period %.3f", spec, tp.Regions, tp.Period)
		}
	}
}

func TestRoundTripDerive(t *testing.T) {
	d, res := convert(t, "dlx")
	tp := res.BackendResult.(*twophase.Result)

	// Write the converted design out and read it back: Derive must rebuild
	// the same structure from names and connectivity alone.
	lib := stdcells.New(stdcells.HighSpeed)
	back, err := verilog.Read(verilog.Write(d), lib, d.Top.Name)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	n := twophase.Derive(back.Top)
	if diffs := twophase.Diff(tp.Claim, n); len(diffs) > 0 {
		t.Fatalf("round-tripped netlist disagrees with the claim: %v", diffs)
	}
	if !n.RingClosed || !n.CrossCoupled {
		t.Errorf("derived topology incomplete: ring %v, cross-coupling %v", n.RingClosed, n.CrossCoupled)
	}
}

func TestDeriveCatchesMutations(t *testing.T) {
	d, res := convert(t, "fir")
	tp := res.BackendResult.(*twophase.Result)

	// Cutting the ring feedback must surface as a cross-check mismatch.
	src := d.Top.Inst(ctrlnet.TPSrcName)
	if src == nil {
		t.Fatal("no generator source NOR")
	}
	d.Top.Disconnect(src, "B")
	n := twophase.Derive(d.Top)
	if n.RingClosed {
		t.Errorf("ring reported closed after cutting the feedback")
	}
	if diffs := twophase.Diff(tp.Claim, n); len(diffs) == 0 {
		t.Errorf("Diff missed the cut ring")
	}
}

func TestModeRejected(t *testing.T) {
	d, err := designs.ParseSpec("fir", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Convert(context.Background(), d, core.Options{
		Backend: core.BackendTwoPhase,
		Mode:    core.ModeCompletion,
	})
	if err == nil || !strings.Contains(err.Error(), "no modes") {
		t.Fatalf("mode on twophase not rejected: %v", err)
	}
	if got := core.StageOf(err); got != core.StageImport {
		t.Errorf("mode rejection staged as %q, want %q", got, core.StageImport)
	}
}

func TestCanonicalizeZeroesDesyncKnobs(t *testing.T) {
	o, err := core.Options{
		Backend: core.BackendTwoPhase,
		MuxTaps: true,
	}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.MuxTaps {
		t.Errorf("desync-only knobs survived canonicalization: %+v", o)
	}
	if o.Margin != 1.15 {
		t.Errorf("Margin = %v, want the 1.15 default", o.Margin)
	}
}
