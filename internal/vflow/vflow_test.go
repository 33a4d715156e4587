package vflow

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/equiv"
	"desync/internal/faults"
	"desync/internal/lint"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// inputRegsOnly is a design the automatic grouping rejects: its only
// flip-flops register primary inputs directly (no combinational cloud), so
// every sequential element lands in group 0 and no region exists.
const inputRegsOnly = `
module m (clk, rstn, a, b, qa, qb);
  input clk, rstn, a, b;
  output qa, qb;
  DFFRQX1 ra (.D(a), .CK(clk), .RN(rstn), .Q(qa));
  DFFRQX1 rb (.D(b), .CK(clk), .RN(rstn), .Q(qb));
endmodule
`

func fromSpec(spec string) func() (*netlist.Design, error) {
	return func() (*netlist.Design, error) {
		return designs.ParseSpec(spec, stdcells.New(stdcells.HighSpeed))
	}
}

func fromVerilog(src string) func() (*netlist.Design, error) {
	return func() (*netlist.Design, error) {
		return verilog.Read(src, stdcells.New(stdcells.HighSpeed), "")
	}
}

// runRecorded runs the flow and returns the outcome, the error and the
// verdict stream as "step/status" entries in callback order.
func runRecorded(t *testing.T, build func() (*netlist.Design, error), opts Options) (*Outcome, []string, error) {
	t.Helper()
	var stream []string
	opts.OnVerdict = func(v Verdict) { stream = append(stream, v.Step+"/"+string(v.Status)) }
	out, err := Run(context.Background(), build, opts)
	return out, stream, err
}

func wantStream(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdict stream %v, want %v", got, want)
	}
}

// assertCleanCtrlnet checks a result against the claim/derivation contract
// the straight-through flow enforces: a network was derived, and it agrees
// with the insert stage's claim.
func assertCleanCtrlnet(t *testing.T, res *core.Result) {
	t.Helper()
	if res.Network == nil || res.Network.Empty() {
		t.Fatal("result carries no derived control network")
	}
	if ds := ctrlnet.Diff(res.Insert.Claim, res.Network); len(ds) != 0 {
		t.Fatalf("flow shipped with claim/derivation mismatches: %v", ds)
	}
}

// TestCleanRunVerdicts: a healthy DLX passes every requested gate on the
// first attempt, and the callback sees the verdicts in gate order.
func TestCleanRunVerdicts(t *testing.T) {
	out, stream, err := runRecorded(t, fromSpec("dlx"), Options{Flow: core.Options{Period: 4.65}, Equiv: true})
	if err != nil {
		t.Fatal(err)
	}
	wantStream(t, stream, "pre-import/ran", "lint/ran", "static/ran", "equiv/ran")
	if len(out.Degraded) != 0 || len(out.Verdicts) != 4 {
		t.Fatalf("fallbacks %v, verdicts %v", out.Degraded, out.Verdicts)
	}
	if out.Lint == nil || out.Static == nil || out.Equiv == nil || out.Faults != nil {
		t.Fatal("reports do not match the gates that ran")
	}
	if v := out.Verdict(GateStatic); v.Findings == nil || len(v.Findings.ByRule("MG-CYCLE")) == 0 {
		t.Fatalf("static verdict carries no MG-CYCLE finding: %+v", v)
	}
	assertCleanCtrlnet(t, out.Result)
}

// TestFallbackSingleRegion: a grouping failure degrades to one region
// instead of aborting the run.
func TestFallbackSingleRegion(t *testing.T) {
	// Direct flow attempt fails with the staged no-regions error.
	d, err := fromVerilog(inputRegsOnly)()
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Convert(context.Background(), d, core.Options{Period: 1})
	if !errors.Is(err, core.ErrNoRegions) || core.StageOf(err) != core.StageGroup {
		t.Fatalf("direct flow: err = %v, want ErrNoRegions at stage %s", err, core.StageGroup)
	}

	out, stream, err := runRecorded(t, fromVerilog(inputRegsOnly), Options{Flow: core.Options{Period: 1}})
	if err != nil {
		t.Fatalf("fallback flow failed: %v", err)
	}
	wantStream(t, stream, "pre-import/ran", "group/downgraded", "pre-import/ran", "lint/ran", "static/ran")
	if len(out.Degraded) != 1 || !strings.Contains(out.Degraded[0].Reason, "falling back to a single region") {
		t.Fatalf("fallbacks = %+v", out.Degraded)
	}
	if out.Result.Grouping.Groups != 1 {
		t.Fatalf("fallback regions = %d, want 1", out.Result.Grouping.Groups)
	}
	// The degraded run still carries a derived control network whose
	// insert-stage claim cross-checks clean, exactly like a first-try run.
	assertCleanCtrlnet(t, out.Result)
	if out.Result.Network.ControlNet(1, "mri") == nil {
		t.Fatal("derived network does not resolve the region-1 master request")
	}
}

// TestMarginAutoBump: an under-margin sizing result triggers three margin
// bumps from the canonical margin; the run then ships with the advisory
// and DS-MARGIN demoted to warnings.
func TestMarginAutoBump(t *testing.T) {
	out, stream, err := runRecorded(t, fromSpec("dlx"), Options{Flow: core.Options{Period: 4.65, Margin: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	wantStream(t, stream,
		"pre-import/ran", "size/downgraded", "pre-import/ran", "size/downgraded",
		"pre-import/ran", "size/downgraded", "pre-import/ran", "lint/downgraded", "static/ran")
	if r := out.Degraded[0].Reason; !strings.Contains(r, "at margin 0.05; retrying with margin 0.0575") {
		t.Fatalf("first bump %q", r)
	}
	if len(out.Result.UnderMargin) == 0 {
		t.Fatal("three 15% bumps from 0.05 cannot reach 1.0; the advisory must stand")
	}
	if out.Lint.Errors() != 0 || len(out.Lint.ByRule(lint.RuleMargin)) == 0 {
		t.Fatalf("DS-MARGIN not demoted: %d errors, %d DS-MARGIN findings",
			out.Lint.Errors(), len(out.Lint.ByRule(lint.RuleMargin)))
	}
	// Under-margin delay elements degrade timing, not structure.
	assertCleanCtrlnet(t, out.Result)
}

// TestDemotedMarginDoesNotLeadFailure: after the margin retries run out the
// post-export gate demotes DS-MARGIN to warnings. An error in the same
// report must still fail the gate, and the failure must name that error,
// not a demoted warning that sorted ahead of it as an error.
func TestDemotedMarginDoesNotLeadFailure(t *testing.T) {
	r := &runner{opts: Options{Flow: core.Options{Period: 4.65, Margin: 0.05}, OnVerdict: func(Verdict) {}}, Outcome: &Outcome{}}
	if err := r.convert(context.Background(), fromSpec("dlx")); err != nil {
		t.Fatal(err)
	}
	if len(r.Result.UnderMargin) == 0 {
		t.Fatal("three 15% bumps from 0.05 cannot reach 1.0; the advisory must stand")
	}
	cons := r.Result.Constraints
	dropped := cons.Disabled[0]
	cons.Disabled = cons.Disabled[1:]
	err := r.gates(context.Background())
	if err == nil {
		t.Fatalf("post-export gate passed without the loop-breaking constraint on %s", dropped.Inst)
	}
	want := "lint gate: 1 error finding(s), first: error " + lint.RuleSDC
	if !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want it to start %q", err, want)
	}
	if f := r.Lint.Findings[0]; f.Severity != lint.Error || f.Rule != lint.RuleSDC {
		t.Fatalf("report leads with %s, want the %s error", f, lint.RuleSDC)
	}
	if len(r.Lint.ByRule(lint.RuleMargin)) == 0 {
		t.Fatal("no demoted DS-MARGIN warning left to sort behind the error")
	}
}

// TestEquivDowngradedPastEstimate: when the state estimate exceeds the
// marking budget the exhaustive gate is downgraded, not run.
func TestEquivDowngradedPastEstimate(t *testing.T) {
	out, _, err := runRecorded(t, fromSpec("dlx"), Options{
		Flow: core.Options{Period: 4.65}, Equiv: true, EquivMaxStates: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := out.Verdict(GateEquiv)
	want := "state estimate 4096 exceeds the 100-marking budget; static verdicts stand alone"
	if v.Status != Downgraded || v.Reason != want || out.Equiv != nil {
		t.Fatalf("equiv verdict %+v (report %v), want downgraded: %s", v, out.Equiv != nil, want)
	}
}

// TestTwoPhaseSkipsHandshakeGates: the marked-graph, equiv and faults gates
// model handshake controllers, which the twophase backend does not insert.
func TestTwoPhaseSkipsHandshakeGates(t *testing.T) {
	out, stream, err := runRecorded(t, fromSpec("dlx"), Options{
		Flow: core.Options{Backend: core.BackendTwoPhase, Period: 4.65}, Equiv: true, Faults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantStream(t, stream, "pre-import/ran", "lint/ran", "static/skipped", "equiv/skipped", "faults/skipped")
	if out.Static != nil || out.Equiv != nil || out.Faults != nil {
		t.Fatal("a skipped gate left a report")
	}
}

// TestCompletionSkipsMarkedGraphGates: the marking model covers
// matched-delay controllers only, so a completion-detection conversion
// skips the static and equiv gates and says why, instead of failing.
func TestCompletionSkipsMarkedGraphGates(t *testing.T) {
	out, stream, err := runRecorded(t, fromSpec("dlx"), Options{
		Flow: core.Options{Mode: core.ModeCompletion, Period: 4.65}, Equiv: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantStream(t, stream, "pre-import/ran", "lint/ran", "static/skipped", "equiv/skipped")
	if v := out.Verdict(GateStatic); !strings.Contains(v.Reason, "completion detection") {
		t.Errorf("static verdict %+v does not name completion detection", v)
	}
	if out.Static != nil || out.Equiv != nil {
		t.Fatal("a skipped gate left a report")
	}
}

// TestFaultsPeriodFromBudgets: without a period the campaign is clocked
// from the worst region budget instead of failing.
func TestFaultsPeriodFromBudgets(t *testing.T) {
	out, _, err := runRecorded(t, fromSpec("dlx"), Options{Faults: true, FaultCycles: 4, FaultsPerRegion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v := out.Verdict(GateFaults); v.Status != Ran || out.Faults == nil || len(out.Faults.Outcomes) == 0 {
		t.Fatalf("faults verdict %+v, report %v", v, out.Faults)
	}
}

// TestFaultsOnOpenBoundaries: the campaign's driver answers the
// environment ports of open-boundary designs, so the golden runs of the
// FIR and a riscv pipeline complete and every delay and stuck-at fault is
// detected.
func TestFaultsOnOpenBoundaries(t *testing.T) {
	for _, c := range []struct {
		spec         string
		period       float64
		delay, stuck int
	}{{"fir", 6.0, 4, 24}, {"riscv:depth=8,regions=8", 0, 16, 64}} {
		out, err := Run(context.Background(), fromSpec(c.spec), Options{Faults: true,
			Flow: core.Options{Period: c.period, ManualGroups: designs.PreGrouped(c.spec)}})
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		for class, want := range map[faults.Class]int{faults.ClassDelay: c.delay, faults.ClassStuckAt: c.stuck} {
			if d, n := out.Faults.Detected(class); d != want || n != want {
				t.Errorf("%s: %s faults %d of %d detected, want %d of %d", c.spec, class, d, n, want, want)
			}
		}
	}
}

// TestPreImportGateFails: a structurally broken input is rejected before
// conversion, with the findings kept on the failed verdict.
func TestPreImportGateFails(t *testing.T) {
	const loop = `
module bad_loop (a, z);
  input a;
  output z;
  wire n1, n2;
  AND2X1 u1 (.A(a), .B(n2), .Z(n1));
  INVX1 u2 (.A(n1), .Z(n2));
  BUFX1 u3 (.A(n1), .Z(z));
endmodule
`
	out, stream, err := runRecorded(t, fromVerilog(loop), Options{Flow: core.Options{Period: 1}})
	if err == nil || !strings.Contains(err.Error(), "pre-import gate") {
		t.Fatalf("err = %v, want a pre-import gate failure", err)
	}
	wantStream(t, stream, "pre-import/failed")
	if v := out.Verdict(GatePreImport); v.Findings == nil || len(v.Findings.ByRule(lint.RuleLoop)) == 0 || out.Result != nil {
		t.Fatalf("failed verdict %+v, result %v", v, out.Result)
	}
}

// TestEquivGateFailsBrokenNetwork feeds the gate a control network with a
// cut acknowledge and checks the failure carries the equiv flow stage and
// names the violated property.
func TestEquivGateFailsBrokenNetwork(t *testing.T) {
	out, err := Run(context.Background(), fromSpec("dlx"), Options{Flow: core.Options{Period: 4.65}})
	if err != nil {
		t.Fatal(err)
	}
	ai := out.Design.Top.Inst("G2_Mctrl/ai")
	if ai == nil {
		t.Fatal("G2_Mctrl/ai not found")
	}
	out.Design.Top.Disconnect(ai, "Z")

	m, err := equiv.FromNetwork(out.Design.Top, ctrlnet.Derive(out.Design.Top))
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{opts: Options{OnVerdict: func(Verdict) {}}, Outcome: &Outcome{}}
	err = r.equivGate(context.Background(), out.Design, m)
	if err == nil {
		t.Fatal("equiv gate passed a deadlocking network")
	}
	if core.StageOf(err) != core.StageEquiv {
		t.Fatalf("stage = %q, want %q (err: %v)", core.StageOf(err), core.StageEquiv, err)
	}
	v := r.Verdict(GateEquiv)
	if v.Status != Failed || v.Findings == nil || len(v.Findings.ByRule(equiv.RuleDeadlock)) == 0 {
		t.Errorf("verdict %+v does not name %s", v, equiv.RuleDeadlock)
	}
	if r.Equiv == nil || r.Equiv.Violation == nil {
		t.Error("failed gate kept no counterexample report")
	}
}

// TestRunParallelDeterministic: the whole verified flow on DLX, with every
// gate a parallel kernel feeds (sizing, lint, equiv with cross-validation,
// the fault campaign), writes the same bytes at GOMAXPROCS 1 and 4 — the
// netlist, the SDC and every report.
func TestRunParallelDeterministic(t *testing.T) {
	artifacts := func() map[string][]byte {
		out, err := Run(context.Background(), fromSpec("dlx"), Options{
			Flow:  core.Options{Period: 4.65},
			Equiv: true, EquivXval: 1, EquivSeed: 1,
			Faults: true, FaultsPerRegion: 1, FaultCycles: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Equiv == nil || out.Equiv.XVal == nil || out.Faults == nil {
			t.Fatalf("gates did not all report: equiv %v, faults %v", out.Equiv, out.Faults)
		}
		lintJSON, err := out.Lint.JSON()
		if err != nil {
			t.Fatal(err)
		}
		arts := map[string][]byte{
			"netlist": []byte(verilog.Write(out.Design)),
			"sdc":     []byte(out.Result.Constraints.Write()),
			"lint":    lintJSON,
		}
		for name, write := range map[string]func(io.Writer) error{
			"static": out.Static.WriteJSON,
			"equiv":  out.Equiv.WriteJSON,
			"faults": out.Faults.WriteJSON,
		} {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				t.Fatal(err)
			}
			arts[name] = buf.Bytes()
		}
		return arts
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := artifacts()
	runtime.GOMAXPROCS(4)
	par := artifacts()
	for _, name := range []string{"netlist", "sdc", "lint", "static", "equiv", "faults"} {
		if len(serial[name]) == 0 {
			t.Fatalf("%s: empty artifact", name)
		}
		if !bytes.Equal(serial[name], par[name]) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4", name)
		}
	}
}
