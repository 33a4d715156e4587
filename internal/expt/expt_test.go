package expt

import (
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/netlist"
	"desync/internal/vflow"
)

// Table 5.1's reproduced shape: a moderate total overhead dominated by the
// flip-flop → latch-pair substitution in the sequential row, small
// combinational overhead from the matched delay elements, and a core-size
// overhead a few points above the cell-area one (utilization drops).
func TestTable51Shape(t *testing.T) {
	tbl, f, err := Table51()
	if err != nil {
		t.Fatal(err)
	}
	if f.Result.Grouping.Groups != 4 {
		t.Fatalf("DLX regions = %d, want 4", f.Result.Grouping.Groups)
	}
	seq, _ := Find(tbl.PostSynthesis, "sequential logic (um2)")
	comb, _ := Find(tbl.PostSynthesis, "combinational logic (um2)")
	cell, _ := Find(tbl.PostSynthesis, "cell area (um2)")
	core, _ := Find(tbl.PostLayout, "core size (um2)")
	if seq.Overhead <= comb.Overhead {
		t.Fatalf("sequential overhead (%.1f%%) must dominate combinational (%.1f%%)",
			seq.Overhead, comb.Overhead)
	}
	if seq.Overhead < 10 || seq.Overhead > 35 {
		t.Fatalf("sequential overhead %.1f%% outside the latch-substitution regime", seq.Overhead)
	}
	if comb.Overhead < 0 || comb.Overhead > 12 {
		t.Fatalf("combinational overhead %.1f%% implausible", comb.Overhead)
	}
	if cell.Overhead <= 0 || cell.Overhead > 25 {
		t.Fatalf("cell-area overhead %.1f%% implausible", cell.Overhead)
	}
	if core.Overhead <= cell.Overhead-1 {
		t.Fatalf("core overhead %.1f%% should not undercut cell overhead %.1f%%",
			core.Overhead, cell.Overhead)
	}
	out := tbl.Render()
	for _, want := range []string{"Post Synthesis", "Post Layout", "core utilization"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q", want)
		}
	}
}

// Fig 5.3's reproduced shape: the effective period is monotone in the
// delay selection at both corners; selections 0 and 1 fail at BOTH corners
// (the delay elements track the logic across corners — the paper's central
// observation); the best working setup is selection 2.
func TestFig53Shape(t *testing.T) {
	sweep, f, err := Fig53(25)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.BestSelection != 2 {
		t.Fatalf("best selection = %d, want 2", sweep.BestSelection)
	}
	status := map[[2]int]TimingPoint{}
	for _, p := range sweep.DDLX {
		status[[2]int{p.Selection, int(p.Corner)}] = p
	}
	for sel := 0; sel <= 1; sel++ {
		for _, c := range []netlist.Corner{netlist.Best, netlist.Worst} {
			if status[[2]int{sel, int(c)}].Correct {
				t.Fatalf("selection %d at %s corner should be too short", sel, c)
			}
		}
	}
	for sel := 2; sel <= 7; sel++ {
		for _, c := range []netlist.Corner{netlist.Best, netlist.Worst} {
			if !status[[2]int{sel, int(c)}].Correct {
				t.Fatalf("selection %d at %s corner should work", sel, c)
			}
		}
	}
	// Monotone periods per corner over the working range.
	for _, c := range []netlist.Corner{netlist.Best, netlist.Worst} {
		for sel := 3; sel <= 7; sel++ {
			if status[[2]int{sel, int(c)}].Period <= status[[2]int{sel - 1, int(c)}].Period {
				t.Fatalf("%s corner: period not monotone at selection %d", c, sel)
			}
		}
	}
	// Corners track each other: worst/best period ratio stays near the
	// library corner spread at every working selection.
	for sel := 2; sel <= 7; sel++ {
		ratio := status[[2]int{sel, 1}].Period / status[[2]int{sel, 0}].Period
		if ratio < 2.2 || ratio > 2.8 {
			t.Fatalf("selection %d: corner ratio %.2f drifted from the library spread", sel, ratio)
		}
	}
	// The best working setup is competitive with the synchronous worst
	// case (the paper reports a modest overhead; transparency lets our
	// latch-based version borrow time, so allow a band around 1.0).
	best := status[[2]int{sweep.BestSelection, 1}].Period
	if best < 0.7*f.Period || best > 1.4*f.Period {
		t.Fatalf("DDLX@best %.2f vs DLX %.2f outside the credible band", best, f.Period)
	}
	if !strings.Contains(sweep.Render(), "TOO SHORT") {
		t.Fatal("render must mark the failing selections")
	}
}

// Fig 5.5's reproduced shape: power rises as the selection lowers (higher
// frequency), and the faster corner burns more power.
func TestFig55Shape(t *testing.T) {
	sweep, _, err := Fig53(25)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]int]TimingPoint{}
	for _, p := range sweep.DDLX {
		byKey[[2]int{p.Selection, int(p.Corner)}] = p
	}
	for _, c := range []netlist.Corner{netlist.Best, netlist.Worst} {
		for sel := 3; sel <= 7; sel++ {
			if byKey[[2]int{sel, int(c)}].PowerMW >= byKey[[2]int{sel - 1, int(c)}].PowerMW {
				t.Fatalf("%s corner: power not rising as selection lowers (sel %d)", c, sel)
			}
		}
		// Desynchronized power exceeds the synchronous version at the same
		// corner and comparable rate (cell-count overhead), within reason.
		p2 := byKey[[2]int{4, int(c)}].PowerMW
		if p2 <= 0 {
			t.Fatalf("%s corner: no power measured", c)
		}
	}
	if byKey[[2]int{2, 0}].PowerMW <= byKey[[2]int{2, 1}].PowerMW {
		t.Fatal("best corner (faster) must burn more power than worst")
	}
	if !strings.Contains(sweep.RenderPower(), "Total power") {
		t.Fatal("power rendering broken")
	}
}

// Fig 5.4's reproduced claim: under an inter-die population spanning the
// corners, the desynchronized design beats the synchronous worst-case
// period on the large majority of chips (~90% at the calibrated setup).
func TestFig54Majority(t *testing.T) {
	mc, _, err := Fig54(30, 15, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mc.FasterFraction < 0.7 {
		t.Fatalf("only %.0f%% of chips faster than the synchronous worst case", mc.FasterFraction*100)
	}
	if mc.DDLXBest >= mc.DDLXWorst {
		t.Fatal("population has no spread")
	}
	if !strings.Contains(mc.Render(), "faster than synchronous worst case") {
		t.Fatal("render broken")
	}
}

// Table 5.2's reproduced shape: the scan design's substitution overhead
// lands in the sequential row (scan muxes rebuilt from discrete gates) and
// exceeds the DLX's sequential overhead; combinational logic is nearly
// untouched.
func TestTable52Shape(t *testing.T) {
	tbl, f, err := Table52()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ScanChain < 1000 {
		t.Fatalf("ARM scan chain only %d flip-flops", tbl.ScanChain)
	}
	if tbl.Coverage < 0.5 {
		t.Fatalf("vector coverage %.2f too low", tbl.Coverage)
	}
	if f.Result.Grouping.Groups != 1 {
		t.Fatalf("ARM regions = %d, want the single pre-grouped region of §5.3", f.Result.Grouping.Groups)
	}
	seq, _ := Find(tbl.PostSynthesis, "sequential logic (um2)")
	comb, _ := Find(tbl.PostSynthesis, "combinational logic (um2)")
	if seq.Overhead < 15 {
		t.Fatalf("ARM sequential overhead %.1f%% too small for a scan design", seq.Overhead)
	}
	if comb.Overhead > 6 {
		t.Fatalf("ARM combinational overhead %.1f%% too large", comb.Overhead)
	}
	if seq.Overhead < 4*comb.Overhead {
		t.Fatalf("sequential (%.1f%%) must dwarf combinational (%.1f%%)", seq.Overhead, comb.Overhead)
	}
}

func TestControlOverheadBand(t *testing.T) {
	f, err := RunFlow("dlx", FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := ControlOverhead(f, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Conservatively sized delay elements put the as-sized overhead above
	// the paper's calibrated 20%, but it must stay a bounded constant.
	if ab.OverheadPct < 5 || ab.OverheadPct > 80 {
		t.Fatalf("as-sized control overhead %.1f%% outside the credible band", ab.OverheadPct)
	}
}

// TestUnderSizedDelayElementFlagged: a delay element sized far below its
// region's combinational delay must be flagged twice over — statically by
// the sizing check (Result.UnderMargin), which makes the verified flow
// bump the margin three times and still ship under margin, and
// dynamically by the flow-equivalence check, which sees the too-early
// capture corrupt the architectural state at the worst corner.
func TestUnderSizedDelayElementFlagged(t *testing.T) {
	f, err := RunFlow("dlx", FlowConfig{Margin: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Result.UnderMargin) == 0 {
		t.Fatal("margin 0.05 not flagged by the sizing check")
	}
	if len(f.Degraded) != 3 {
		t.Fatalf("fallbacks %+v, want the three margin retries", f.Degraded)
	}
	for _, v := range f.Degraded {
		if v.Step != core.StageSize || !strings.Contains(v.Reason, "retrying with margin") {
			t.Fatalf("fallback %+v is not a margin retry", v)
		}
	}
	if v := f.Verdict(vflow.GateLint); v.Status != vflow.Downgraded {
		t.Fatalf("lint verdict %+v, want downgraded: the run ships under margin", v)
	}
	run, err := MeasureDDLX(f, netlist.Worst, 1.0, -1, 20)
	if err != nil {
		// A stall is also a detection: the broken timing never produced
		// enough captures to compare.
		t.Logf("under-sized element stalled the simulation: %v", err)
		return
	}
	if run.Correct {
		t.Fatal("flow-equivalence check passed with under-sized delay elements")
	}
}

// §6 future work, implemented: SSTA confirms every region's delay element
// covers its logic with near-certainty on-die (shared global variation
// cancels in the difference), while an off-die reference with the same
// nominal margin would not.
func TestSSTAMatching(t *testing.T) {
	f, err := RunFlow("dlx", FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := SSTAMatching(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 regions, got %d", len(rows))
	}
	worstIndep := 1.0
	for _, r := range rows {
		if r.CoverShared < 0.999 {
			t.Fatalf("region %d: on-die coverage %.4f, want ~1", r.Region, r.CoverShared)
		}
		if r.Element.Mean <= r.Logic.Mean {
			t.Fatalf("region %d: element mean does not exceed logic", r.Region)
		}
		if r.CoverIndependent < worstIndep {
			worstIndep = r.CoverIndependent
		}
	}
	if worstIndep > 0.995 {
		t.Fatalf("off-die reference coverage %.4f suspiciously perfect; the contrast is the point", worstIndep)
	}
	if !strings.Contains(RenderSSTA(rows), "on-die") {
		t.Fatal("render broken")
	}
}

func TestFig24AndTable21(t *testing.T) {
	rows, err := Fig24()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("want 7 protocols, got %d", len(rows))
	}
	live, fe := 0, 0
	for _, r := range rows {
		if r.Live {
			live++
		}
		if r.FlowEq {
			fe++
		}
	}
	if live != 6 || fe != 6 {
		t.Fatalf("classification off: %d live, %d flow-equivalent (want 6/6)", live, fe)
	}
	out := RenderFig24(rows)
	if !strings.Contains(out, "semi-decoupled") {
		t.Fatal("render broken")
	}
	if !strings.Contains(Table21(), "unchanged") {
		t.Fatal("Table 2.1 render broken")
	}
}

// The desynchronized FIR, fed by the driver's environment, computes the
// golden FIR model's output stream at the worst corner. The flow-
// equivalence oracle compares a conversion with its synchronous netlist
// only; this check also catches a designs.BuildFIR fault both share.
func TestDesynchronizedFIRComputes(t *testing.T) {
	f, err := RunFlow("fir", FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := MeasureDFIR(f, netlist.Worst, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Correct || run.Cycles < 18 {
		t.Fatalf("%+v: want the golden output stream over the 20 samples", *run)
	}
	t.Logf("%d outputs, effective period %.3f ns", run.Cycles, run.EffectivePeriod)
}
