package mga

import (
	"context"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/dft"
	"desync/internal/equiv"
	"desync/internal/netlist"
)

// These tests cross-validate the static verdicts against the exhaustive
// BFS of internal/equiv: on healthy designs the two must agree (MG-LIVE
// live <=> no EQ-DEAD reachable), and on the known-bad construction
// fixtures (the same mutations internal/equiv pins golden counterexample
// traces for) the static engine must catch the bug with no state search
// at all.

// converted builds a fresh copy of a generator spec and desynchronizes it
// as the experiments do: the ARM as a scan design, pre-grouped generators
// keeping their regions. The clock period only shapes the SDC, which
// these tests do not read.
func converted(t *testing.T, spec string) *netlist.Design {
	t.Helper()
	d, err := designs.ParseSpec(spec, nil)
	if err == nil && spec == "arm" {
		_, err = dft.InsertScan(d)
	}
	if err == nil {
		_, err = core.Convert(context.Background(), d, core.Options{ManualGroups: designs.PreGrouped(spec)})
	}
	if err != nil {
		t.Fatalf("%s flow: %v", spec, err)
	}
	return d
}

func analyzeStatic(t *testing.T, d *netlist.Design) *Report {
	t.Helper()
	cn := ctrlnet.Derive(d.Top)
	rep, err := Analyze(d.Top, cn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func explore(t *testing.T, mod *netlist.Module) *equiv.Result {
	t.Helper()
	m, err := equiv.FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Explore(context.Background(), equiv.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStaticMatchesBFSDLX(t *testing.T) {
	d := converted(t, "dlx")
	rep := analyzeStatic(t, d)
	res := explore(t, d.Top)
	if res.Truncated {
		t.Fatal("BFS truncated; cross-check needs the full state space")
	}
	if got, want := rep.Live && rep.Safe, res.Violation == nil; got != want {
		t.Fatalf("static verdict %v disagrees with BFS violation=%v", got, res.Violation)
	}
	// The downgrade heuristic must cover the real state count.
	if est := StateEstimate(rep.Regions); uint64(res.States) > est {
		t.Fatalf("BFS reached %d states, above the 8^regions estimate %d", res.States, est)
	}
}

func TestStaticMatchesBFSARM(t *testing.T) {
	d := converted(t, "arm")
	rep := analyzeStatic(t, d)
	res := explore(t, d.Top)
	if res.Truncated {
		t.Fatal("BFS truncated on the single-region ARM")
	}
	if got, want := rep.Live && rep.Safe, res.Violation == nil; got != want {
		t.Fatalf("static verdict %v disagrees with BFS violation=%v", got, res.Violation)
	}
}

func TestStaticMatchesBFSFIR(t *testing.T) {
	d := converted(t, "fir")
	rep := analyzeStatic(t, d)
	res := explore(t, d.Top)
	if res.Truncated {
		t.Fatal("BFS truncated on the FIR")
	}
	// The agreement claim is on the marked-graph properties: MG-LIVE
	// matches EQ-DEAD. Flow equivalence is a data-generation property
	// outside the marked graph's scope — and the FIR is exactly the case
	// where that matters: a maximally-eager environment can re-acknowledge
	// the output boundary fast enough to recapture a stale generation
	// (EQ-FLOW), which no polite 4-phase testbench triggers and no
	// structural check can see.
	deadlocked := res.Violation != nil && res.Violation.Rule == equiv.RuleDeadlock
	if rep.Live == deadlocked {
		t.Fatalf("static live=%v disagrees with BFS deadlock=%v", rep.Live, deadlocked)
	}
	if rep.PeriodNs <= 0 {
		t.Fatal("no static period bound on the live FIR")
	}
	if res.Violation != nil && res.Violation.Rule != equiv.RuleFlow {
		t.Fatalf("FIR BFS violation drifted: got %s, the known finding is %s (adversarial-env recapture)",
			res.Violation.Rule, equiv.RuleFlow)
	}
}

// mutations replicated from internal/equiv's known-bad fixtures (the
// golden-trace tests there own the BFS side; here the same bugs must fall
// to the structural checks alone).

func TestStaticCatchesDroppedAck(t *testing.T) {
	d := converted(t, "dlx")
	ai := d.Top.Inst("G2_Mctrl/ai")
	if ai == nil {
		t.Fatal("G2_Mctrl/ai not found")
	}
	d.Top.Disconnect(ai, "Z")

	rep := analyzeStatic(t, d)
	if rep.Live {
		t.Fatal("dropped acknowledge not caught: graph reported live")
	}
	if !hasRule(rep, RuleLive) {
		t.Fatalf("want an MG-LIVE finding, got %v", rep.Findings)
	}
}

func TestStaticCatchesSwappedPhases(t *testing.T) {
	d := converted(t, "dlx")
	mg, sg := d.Top.Inst("G1_Mctrl/g"), d.Top.Inst("G1_Sctrl/g")
	if mg == nil || sg == nil {
		t.Fatal("G1 controller g cells not found")
	}
	mg.Cell = d.Lib.MustCell("CGSX1")
	sg.Cell = d.Lib.MustCell("CGMX1")

	rep := analyzeStatic(t, d)
	if rep.Live {
		t.Fatal("swapped reset phases not caught: the drained channel cycle went unnoticed")
	}
	if !findingContains(rep, RuleLive, "token-free cycle") {
		t.Fatalf("want a token-free-cycle MG-LIVE finding, got %v", rep.Findings)
	}
	if !findingContains(rep, RuleSafe, "reset phase inverted") {
		t.Fatalf("want the reset-phase MG-SAFE findings, got %v", rep.Findings)
	}
}

func TestStaticCatchesMissingCInput(t *testing.T) {
	d := converted(t, "dlx")
	c0 := d.Top.Inst("G4_reqC/c0")
	if c0 == nil {
		t.Fatal("G4_reqC/c0 not found")
	}
	dup := c0.Conn("A")
	if dup == nil || c0.Conn("B") == nil {
		t.Fatal("G4_reqC/c0 legs not wired as expected")
	}
	d.Top.Disconnect(c0, "B")
	d.Top.MustConnect(c0, "B", dup)

	rep := analyzeStatic(t, d)
	if rep.Safe {
		t.Fatal("missing C-input not caught: wiring passed the data-dependency cross-check")
	}
	if !findingContains(rep, RuleSafe, "no request synchronization") {
		t.Fatalf("want the missing-rendezvous MG-SAFE finding, got %v", rep.Findings)
	}
}

func hasRule(r *Report, rule string) bool {
	for _, f := range r.Findings {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

func findingContains(r *Report, rule, substr string) bool {
	for _, f := range r.Findings {
		if f.Rule == rule && strings.Contains(f.Msg, substr) {
			return true
		}
	}
	return false
}
