package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"desync/internal/equiv"
	"desync/internal/expt"
	"desync/internal/verilog"
)

func TestCleanDLX(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var out, errb bytes.Buffer
	if code := run([]string{"-gen", "dlx"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"deadlock-freedom: proved", "phase safety:     proved", "flow equivalence: proved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}

	// The worker count must not change a single byte of the report.
	runtime.GOMAXPROCS(4)
	var out4, errb4 bytes.Buffer
	if code := run([]string{"-gen", "dlx"}, &out4, &errb4); code != 0 {
		t.Fatalf("GOMAXPROCS 4: exit %d, stderr: %s", code, errb4.String())
	}
	if !bytes.Equal(out.Bytes(), out4.Bytes()) {
		t.Errorf("report depends on GOMAXPROCS:\n--- 1 ---\n%s\n--- 4 ---\n%s", out.String(), out4.String())
	}
}

func TestJSONReportRecordsSeed(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-gen", "arm", "-json", "-xval", "1", "-seed", "9"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var res equiv.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("JSON report did not parse: %v", err)
	}
	if !res.DeadlockFree || !res.Safe || !res.FlowEquivalent {
		t.Fatalf("ARM not proved clean: %+v", res)
	}
	if res.XVal == nil || res.XVal.Seed != 9 {
		t.Fatalf("cross-validation seed not recorded in the report: %+v", res.XVal)
	}
}

// TestViolationDumpAndReplay drives the whole counterexample life cycle
// through the CLI: a broken netlist read from a file is disproved (exit 1),
// its counterexample dumped, and the dump replayed through the simulator
// for dynamic confirmation (exit 0).
func TestViolationDumpAndReplay(t *testing.T) {
	f, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ai := f.Design.Top.Inst("G2_Mctrl/ai")
	if ai == nil {
		t.Fatal("G2_Mctrl/ai not found")
	}
	f.Design.Top.Disconnect(ai, "Z")

	dir := t.TempDir()
	in := filepath.Join(dir, "broken.v")
	if err := os.WriteFile(in, []byte(verilog.Write(f.Design)), 0o644); err != nil {
		t.Fatal(err)
	}
	ce := filepath.Join(dir, "ce.json")

	var out, errb bytes.Buffer
	code := run([]string{"-in", in, "-dump-ce", ce}, &out, &errb)
	if code != 1 {
		t.Fatalf("broken design: exit %d (want 1), stderr: %s\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), equiv.RuleDeadlock) {
		t.Errorf("report does not name %s:\n%s", equiv.RuleDeadlock, out.String())
	}

	cf, err := os.Open(ce)
	if err != nil {
		t.Fatalf("counterexample not dumped: %v", err)
	}
	tr, err := equiv.ReadTrace(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rule != equiv.RuleDeadlock || len(tr.Events) == 0 {
		t.Fatalf("dumped trace rule=%s events=%d", tr.Rule, len(tr.Events))
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-in", in, "-replay", ce}, &out, &errb)
	if code != 0 {
		t.Fatalf("replay: exit %d, stderr: %s\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "confirmed") || strings.Contains(out.String(), "NOT confirmed") {
		t.Errorf("replay did not confirm:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-gen", "dlx", "-in", "x.v"},
		{"-gen", "nonesuch"},
		{"-gen", "dlx", "-j", "4"}, // the worker count is GOMAXPROCS, not a flag
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}
