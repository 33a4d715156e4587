package equiv

import (
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/dft"
	"desync/internal/lint"
	"desync/internal/netlist"
)

// mustExplore runs an uncancelled exploration, failing the test on the
// (impossible without cancellation) error path.
func mustExplore(t testing.TB, m *Model, opts ExploreOptions) *Result {
	t.Helper()
	res, err := m.Explore(context.Background(), opts)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return res
}

// converted builds a fresh copy of a generator spec and desynchronizes it
// as the experiments do: the ARM as a scan design, pre-grouped generators
// keeping their regions. The clock period only shapes the SDC, which
// these tests do not read. Each caller gets its own netlist so mutation
// tests cannot contaminate each other.
func converted(t testing.TB, spec string) *netlist.Design {
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

// Converted is converted for the external test package.
var Converted = converted

// TestDLXClean is the end-to-end proof the issue asks for: the flow's DLX
// output model-checks clean — deadlock-free, phase-safe and flow
// equivalent — within the default state budget.
func TestDLXClean(t *testing.T) {
	mod := converted(t, "dlx").Top
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Findings {
		if f.Severity == lint.Error {
			t.Errorf("model extraction error finding: %s %s %s", f.Rule, f.Net, f.Msg)
		}
	}
	if len(m.Regions) != 4 {
		t.Fatalf("DLX regions = %v, want 4", m.Regions)
	}
	res := mustExplore(t, m, ExploreOptions{})
	if !res.Clean() {
		t.Fatalf("DLX not clean: %+v (truncated=%v)", res.Violation, res.Truncated)
	}
	if !res.DeadlockFree || !res.Safe || !res.FlowEquivalent {
		t.Fatalf("DLX verdicts: deadlock-free=%v safe=%v flow=%v",
			res.DeadlockFree, res.Safe, res.FlowEquivalent)
	}
	if res.States < 1000 {
		t.Fatalf("suspiciously small reachable space: %d markings", res.States)
	}
	t.Logf("DLX: %d regions, %d signals, %d markings, %d hazard notes",
		res.Regions, res.Signals, res.States, len(res.Hazards))
}

// TestDLXFullPrefixAgrees bounds a full-interleaving search (which cannot
// finish on the DLX) and checks the partial-order reduction is not hiding a
// shallow violation: the unreduced prefix must be violation-free too.
func TestDLXFullPrefixAgrees(t *testing.T) {
	mod := converted(t, "dlx").Top
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	res := mustExplore(t, m, ExploreOptions{NoReduce: true, MaxStates: 150_000})
	if res.Violation != nil {
		t.Fatalf("full interleaving found a violation the reduction missed: %+v", res.Violation)
	}
	if !res.Truncated {
		t.Logf("full search completed in %d states", res.States)
	}
}

// TestARMClean proves the three properties for the ARM case study in both
// reduced and full mode — the single-region network is small enough to
// enumerate completely, so it doubles as the reduction soundness check.
func TestARMClean(t *testing.T) {
	arm := converted(t, "arm").Top
	m, err := FromNetwork(arm, ctrlnet.Derive(arm))
	if err != nil {
		t.Fatal(err)
	}
	red := mustExplore(t, m, ExploreOptions{})
	full := mustExplore(t, m, ExploreOptions{NoReduce: true})
	for name, res := range map[string]*Result{"reduced": red, "full": full} {
		if !res.Clean() {
			t.Fatalf("ARM %s not clean: %+v (truncated=%v)", name, res.Violation, res.Truncated)
		}
	}
	if red.States > full.States {
		t.Fatalf("reduced search (%d markings) larger than full (%d)", red.States, full.States)
	}
	t.Logf("ARM: %d regions, reduced %d / full %d markings", len(m.Regions), red.States, full.States)
}

// TestDLXCrossValidation checks the model accepts randomized simulator
// traces of the real netlist (seeded, so failures reproduce).
func TestDLXCrossValidation(t *testing.T) {
	mod := converted(t, "dlx").Top
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	xv, err := m.CrossValidate(context.Background(), mod, XValConfig{Traces: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if xv.Divergence != nil {
		t.Fatalf("model rejected a simulated trace: %+v", xv.Divergence)
	}
	if xv.Events == 0 {
		t.Fatal("cross-validation observed no visible events")
	}
	t.Logf("cross-validation accepted %d visible events over %d traces", xv.Events, xv.Traces)
}

// TestStuckAckCaughtFormally injects the fault-campaign's stuck-at on an
// acknowledge net — the master acknowledge output is cut, so G2 never acks
// its predecessors — and checks the model catches it purely formally, with
// a concrete counterexample trace and no simulation.
func TestStuckAckCaughtFormally(t *testing.T) {
	mod := converted(t, "dlx").Top
	ai := mod.Inst("G2_Mctrl/ai")
	if ai == nil {
		t.Fatal("G2_Mctrl/ai not found")
	}
	mod.Disconnect(ai, "Z")

	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	res := mustExplore(t, m, ExploreOptions{})
	if res.Violation == nil {
		t.Fatalf("stuck acknowledge not caught (states=%d truncated=%v)", res.States, res.Truncated)
	}
	if res.Violation.Rule != RuleDeadlock && res.Violation.Rule != RuleSafety {
		t.Fatalf("stuck acknowledge flagged as %s, want %s or %s",
			res.Violation.Rule, RuleDeadlock, RuleSafety)
	}
	if len(res.Violation.Events) == 0 {
		t.Fatal("violation has no counterexample trace")
	}
	t.Logf("caught as %s after %d states: %s", res.Violation.Rule, res.States, res.Violation.Msg)
}
