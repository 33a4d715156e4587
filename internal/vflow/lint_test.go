package vflow

import (
	"bytes"
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/lint"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// warnKeeper converts cleanly but keeps two NL-* warnings to export: the
// NAND gate gd drives no port or register (NL-CONE), and the nets \s.n
// and s_n simplify to one name (NL-NAME).
const warnKeeper = `
module warn (clk, rstn, a, b, c, q);
  input clk, rstn, a, b, c;
  output q;
  wire \s.n , s_n, d1, d2, dead;
  DFFRQX1 r1 (.D(a), .CK(clk), .RN(rstn), .Q(\s.n ));
  DFFRQX1 r2 (.D(b), .CK(clk), .RN(rstn), .Q(s_n));
  NAND2X1 g1 (.A(\s.n ), .B(s_n), .Z(d1));
  NOR2X1 g2 (.A(d1), .B(c), .Z(d2));
  DFFRQX1 r3 (.D(d2), .CK(clk), .RN(rstn), .Q(q));
  NAND2X1 gd (.A(a), .B(c), .Z(dead));
endmodule
`

// lintCase is one verified run whose lint the tests below inspect.
type lintCase struct {
	name    string
	build   func() (*netlist.Design, error)
	period  float64
	backend string
}

func lintCases(t *testing.T) []lintCase {
	t.Helper()
	var cases []lintCase
	for _, backend := range []string{core.BackendDesync, core.BackendTwoPhase} {
		cases = append(cases,
			lintCase{"dlx", fromSpec("dlx"), 4.65, backend},
			lintCase{"arm", func() (*netlist.Design, error) {
				return designs.ParseSpec("arm", stdcells.New(stdcells.LowLeakage))
			}, 12, backend},
			lintCase{"fir", fromSpec("fir"), 6, backend})
	}
	flat, err := designs.ParseSpec("pipeline:depth=2,width=16,kind=mix,fanout=balanced,seed=1", stdcells.New(stdcells.HighSpeed))
	if err != nil {
		t.Fatal(err)
	}
	return append(cases,
		lintCase{"flat", fromVerilog(verilog.Write(flat)), 0, core.BackendDesync},
		lintCase{"warnings", fromVerilog(warnKeeper), 2, core.BackendDesync})
}

// TestOutcomeLintMatchesCheck: the post-export report, assembled from the
// Export boundary's NL-* findings and the conversion family, is the report
// a fresh lint.Check of the exported design gives, byte for byte as JSON.
func TestOutcomeLintMatchesCheck(t *testing.T) {
	for _, c := range lintCases(t) {
		t.Run(c.name+"/"+c.backend, func(t *testing.T) {
			out, err := Run(context.Background(), c.build, Options{Flow: core.Options{Backend: c.backend, Period: c.period}})
			if err != nil {
				t.Fatal(err)
			}
			lopts := lint.Options{Constraints: out.Result.Constraints}
			if c.backend == core.BackendDesync {
				lopts.Desync, lopts.Network = true, out.Result.Network
			} else {
				lopts.TwoPhase = true
			}
			got, err := out.Lint.JSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := lint.Check(out.Design.Top, lopts).JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Outcome.Lint:\n%s\nfresh lint.Check:\n%s", got, want)
			}
			if c.name == "warnings" && (len(out.Lint.ByRule(lint.RuleCone)) == 0 || len(out.Lint.ByRule(lint.RuleName)) == 0) {
				t.Fatalf("no NL-CONE or NL-NAME warning kept to export:\n%s", out.Lint.Text())
			}
		})
	}
}

// TestLintPassesPerJob counts the NL-* passes of each run: the pre-import
// gate and the Export boundary run the full family, the post-export gate
// reuses the Export boundary's, and of the three mid-flow boundaries at
// most Clean and Substitute run the Error rules, because the Import
// boundary sees the state the pre-import gate passed.
func TestLintPassesPerJob(t *testing.T) {
	var stage string
	var full, errorsOnly, atImport int
	defer func(f func(bool)) { testLintPass = f }(testLintPass)
	testLintPass = func(f bool) {
		switch {
		case stage == core.StageImport:
			atImport++
		case f:
			full++
		default:
			errorsOnly++
		}
	}
	cases := append(lintCases(t), lintCase{"pre-grouped", fromSpec("pipeline:depth=8,width=16,regions=4"), 0, core.BackendDesync})
	for _, c := range cases {
		stage, full, errorsOnly, atImport = "", 0, 0, 0
		o := core.Options{Backend: c.backend, Period: c.period, ManualGroups: c.name == "pre-grouped",
			Progress: func(s string) { stage = s }}
		if _, err := Run(context.Background(), c.build, Options{Flow: o}); err != nil {
			t.Fatalf("%s/%s: %v", c.name, c.backend, err)
		}
		if full != 2 || errorsOnly > 2 || atImport != 0 {
			t.Errorf("%s/%s: %d full and %d errors-only NL-* passes, %d at the Import boundary; want 2, at most 2 and 0",
				c.name, c.backend, full, errorsOnly, atImport)
		}
	}
}
