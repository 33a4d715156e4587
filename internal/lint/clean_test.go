package lint_test

import (
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/dft"
	"desync/internal/expt"
	"desync/internal/lint"
	"desync/internal/stdcells"
)

// mustClean fails the test when the report carries anything at Warning
// severity or above; Info findings are advisory and allowed.
func mustClean(t *testing.T, what string, rep *lint.Report) {
	t.Helper()
	if rep.Count(lint.Warning) != 0 {
		t.Errorf("%s is not lint-clean:\n%s", what, rep.Text())
	}
}

// TestDLXGoldenFlowLintsClean is the engine's anchor: the DLX case study
// must produce zero findings before desynchronization (netlist rules) and
// zero findings after (netlist + control-network rules cross-checked
// against the generated constraints).
func TestDLXGoldenFlowLintsClean(t *testing.T) {
	f, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "synchronous DLX", lint.Check(f.Sync.Top, lint.Options{}))
	mustClean(t, "desynchronized DLX", lint.Check(f.Design.Top, lint.Options{
		Desync:      true,
		Constraints: f.Result.Constraints,
	}))
}

// TestARMGoldenFlowLintsClean covers the second case study: the scan-
// inserted ARM-class design, desynchronized as a single manual region
// (§5.3), pre and post.
func TestARMGoldenFlowLintsClean(t *testing.T) {
	lib := stdcells.New(stdcells.LowLeakage)
	d, err := designs.BuildARMLike(lib, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dft.InsertScan(d); err != nil {
		t.Fatal(err)
	}
	mustClean(t, "synchronous ARM", lint.Check(d.Top, lint.Options{}))

	res, err := core.Convert(context.Background(), d, core.Options{Period: 5.0, ManualGroups: true})
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "desynchronized ARM", lint.Check(d.Top, lint.Options{
		Desync:      true,
		Constraints: res.Constraints,
	}))
}

// TestDelayFaultsFlaggedStatically closes the loop with the dynamic fault
// campaigns: every delay fault the DLX campaign would inject and then have
// to catch in simulation is already flagged by the static under-margin
// rule, with zero vectors run. The campaign is only used as the fault
// generator here; each fault's factor is applied in memory, linted, and
// restored.
func TestDelayFaultsFlaggedStatically(t *testing.T) {
	f, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := expt.NewCampaign(context.Background(), f, 0)
	if err != nil {
		t.Fatal(err)
	}
	fts := c.DelayFaults(40, 2)
	if len(fts) != 8 {
		t.Fatalf("campaign generated %d delay faults, want 8", len(fts))
	}
	for _, ft := range fts {
		in := f.Design.Top.Inst(ft.Inst)
		if in == nil {
			t.Fatalf("fault targets unknown instance %s", ft.Inst)
		}
		old := in.DelayFactor
		base := old
		if base == 0 {
			base = 1
		}
		in.DelayFactor = base * ft.Factor
		rep := lint.Check(f.Design.Top, lint.Options{
			Desync:      true,
			Constraints: f.Result.Constraints,
		})
		if len(rep.ByRule(lint.RuleMargin)) == 0 {
			t.Errorf("delay fault %v not flagged by %s:\n%s", ft, lint.RuleMargin, rep.Text())
		}
		in.DelayFactor = old
	}
	// With every factor restored the design is clean again: the checks
	// above measured the faults, not leftover state.
	mustClean(t, "restored DLX", lint.Check(f.Design.Top, lint.Options{
		Desync:      true,
		Constraints: f.Result.Constraints,
	}))
}
