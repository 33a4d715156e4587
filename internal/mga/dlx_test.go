package mga

import (
	"bytes"
	"testing"

	"desync/internal/ctrlnet"
)

// TestDLXStaticVerdicts pins the full analysis on the DLX case study. The
// period bound is calibrated against the simulator: the steady-state
// capture spacing of the desynchronized DLX at the worst corner measures
// 6.50855 ns, and the static bound must cover it without exceeding it by
// more than 10% (the acceptance window of the static engine).
func TestDLXStaticVerdicts(t *testing.T) {
	d := converted(t, "dlx")
	cn := ctrlnet.Derive(d.Top)
	rep, err := Analyze(d.Top, cn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Live || !rep.Safe {
		for _, fd := range rep.Findings {
			t.Logf("finding: %s", fd.String())
		}
		t.Fatalf("healthy DLX: live=%v safe=%v, want true/true", rep.Live, rep.Safe)
	}
	if rep.Regions != 4 || rep.Transitions != 8 {
		t.Fatalf("regions=%d transitions=%d, want 4/8", rep.Regions, rep.Transitions)
	}
	if rep.MaxBound != 1 {
		t.Fatalf("MaxBound = %d, want 1 (every channel single-rail)", rep.MaxBound)
	}

	const sim = 6.50855 // measured steady-state period, worst corner
	if rep.PeriodNs < sim-1e-3 {
		t.Fatalf("static period %.5f ns under the simulated %.5f ns: the bound is not conservative", rep.PeriodNs, sim)
	}
	if rep.PeriodNs > 1.10*sim {
		t.Fatalf("static period %.5f ns exceeds 1.10x the simulated %.5f ns: the bound is too loose", rep.PeriodNs, sim)
	}
	if rep.Bottleneck != "G1>G3" {
		t.Fatalf("bottleneck %q, want the long-chain channel G1>G3", rep.Bottleneck)
	}
	want := []string{"req G1>G3", "ack G3>G1"}
	if len(rep.CriticalCycle) != len(want) {
		t.Fatalf("critical cycle %v, want %v", rep.CriticalCycle, want)
	}
	for i := range want {
		if rep.CriticalCycle[i] != want[i] {
			t.Fatalf("critical cycle %v, want %v", rep.CriticalCycle, want)
		}
	}
	if len(rep.PerRegion) != 4 {
		t.Fatalf("per-region table has %d rows, want 4", len(rep.PerRegion))
	}

	// Determinism: a second analysis of the same netlist renders the same
	// bytes, text and JSON.
	rep2, err := Analyze(d.Top, cn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b, ja, jb bytes.Buffer
	rep.WriteText(&a)
	rep2.WriteText(&b)
	if a.String() != b.String() {
		t.Fatal("text report not byte-identical across runs")
	}
	if err := rep.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := rep2.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatal("JSON report not byte-identical across runs")
	}
}

// TestBestCornerScales checks the corner plumbing: the best corner prices
// every arc at 1/CornerSpread of the worst, so the period scales down.
func TestBestCornerScales(t *testing.T) {
	d := converted(t, "dlx")
	cn := ctrlnet.Derive(d.Top)
	worst, err := Analyze(d.Top, cn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	best, err := Analyze(d.Top, cn, Options{BestCorner: true})
	if err != nil {
		t.Fatal(err)
	}
	if best.PeriodNs <= 0 || best.PeriodNs >= worst.PeriodNs {
		t.Fatalf("best-corner period %.4f not under worst-corner %.4f", best.PeriodNs, worst.PeriodNs)
	}
	if !best.Live || !best.Safe {
		t.Fatal("corner choice must not change the structural verdicts")
	}
}
