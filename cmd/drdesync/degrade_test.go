package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/stdcells"
	"desync/internal/verilog"
	"desync/internal/vflow"
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

// runCLI runs the tool with o.out set to a temporary netlist path and
// returns the outcome and the stderr text.
func runCLI(t *testing.T, o *runOpts) (*vflow.Outcome, string) {
	t.Helper()
	o.out = filepath.Join(t.TempDir(), "out.v")
	var stdout, stderr bytes.Buffer
	out, err := run(context.Background(), *o, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	return out, stderr.String()
}

// TestFallbackSingleRegion: a grouping failure degrades to one region with
// a warning instead of aborting the run, and the netlist is still written.
func TestFallbackSingleRegion(t *testing.T) {
	in := filepath.Join(t.TempDir(), "m.v")
	if err := os.WriteFile(in, []byte(inputRegsOnly), 0o644); err != nil {
		t.Fatal(err)
	}
	o := runOpts{in: in, libVariant: "HS", Options: vflow.Options{Flow: core.Options{Period: 1}}}
	out, stderr := runCLI(t, &o)
	if !strings.Contains(stderr, "drdesync: warning: core: m: stage group: no desynchronization regions; falling back to a single region") {
		t.Fatalf("no fallback warning, got %q", stderr)
	}
	if out.Result.Grouping.Groups != 1 || len(out.Degraded) != 1 || out.Degraded[0].Step != core.StageGroup {
		t.Fatalf("regions %d, fallbacks %+v; want one region after one group fallback",
			out.Result.Grouping.Groups, out.Degraded)
	}
	src, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	d, err := verilog.Read(string(src), stdcells.New(stdcells.HighSpeed), "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Top.Net("G1_mri") == nil {
		t.Fatal("fallback design has no region-1 handshake net")
	}
}

// TestMarginAutoBump: an under-margin sizing result bumps the margin three
// times, then ships with the advisory and DS-MARGIN demoted to warnings.
func TestMarginAutoBump(t *testing.T) {
	_, stderr := runCLI(t, &runOpts{gen: "dlx", libVariant: "HS", Options: vflow.Options{Flow: core.Options{Period: 4.65, Margin: 0.05}}})
	if n := strings.Count(stderr, "; retrying with margin "); n != 3 {
		t.Fatalf("%d margin retries reported, want 3:\n%s", n, stderr)
	}
	if !strings.Contains(stderr, "still under-cover regions [1 2 3 4] after 3 retries") {
		t.Fatalf("missing final under-margin advisory:\n%s", stderr)
	}
	if !strings.Contains(stderr, "warning DS-MARGIN") || strings.Contains(stderr, "error DS-MARGIN") {
		t.Fatalf("DS-MARGIN not demoted to warnings:\n%s", stderr)
	}
}

// TestNoDegradationOnCleanRun: a healthy design desynchronizes on the first
// attempt with no warnings.
func TestNoDegradationOnCleanRun(t *testing.T) {
	out, stderr := runCLI(t, &runOpts{gen: "dlx", libVariant: "HS", Options: vflow.Options{Flow: core.Options{Period: 4.65}}})
	if strings.Contains(stderr, "warning") || len(out.Degraded) != 0 {
		t.Fatalf("unexpected degradation %+v:\n%s", out.Degraded, stderr)
	}
	if out.Result.Grouping.Groups < 2 {
		t.Fatalf("DLX regions = %d, want several", out.Result.Grouping.Groups)
	}
}
