// Command drlint is the standalone static verification tool: it runs the
// internal/lint rule engine over a gate-level netlist — the synchronous
// netlist rules on any design, and with -desync the control-network rules
// on a desynchronized one — and exits non-zero when any finding of Error
// severity survives the baseline.
//
// Usage:
//
//	drlint -in design.v [-top name] [-lib HS|LL] [-desync] [-sdc out.sdc] \
//	       [-midflow] [-json] [-baseline accepted.lint] [-write-baseline accepted.lint]
//	drlint -gen dlx|arm|fir [-lib HS|LL] [-json]
//	drlint -gen pipeline:depth=32,width=64,regions=100 [-json]
//	drlint -rules
//
// -gen lints a built-in generator instead of a file — a fixed case study
// (dlx, arm, fir) or a parametric spec in the designs.ParseSpec grammar
// (pipeline, riscv, des with key=value overrides) — so CI can gate the
// example designs without carrying netlist artifacts.
// -sdc supplies the generated constraints for the loop-coverage and
// delay-margin cross-checks (it implies -desync). A baseline file accepts
// known findings by key (rule|module|inst|net); -write-baseline records the
// current findings as accepted.
//
// Exit codes: 0 clean (or all findings suppressed/below Error), 1 findings
// at Error severity, 2 usage or input errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/lint"
	"desync/internal/netlist"
	"desync/internal/sdc"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type lintOpts struct {
	in, gen, top, libVariant string
	sdcIn                    string
	baseline, writeBaseline  string
	desync, midflow          bool
	jsonOut, rules           bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o lintOpts
	fs.StringVar(&o.in, "in", "", "input gate-level Verilog netlist")
	fs.StringVar(&o.gen, "gen", "", "lint a generated design instead of a file: dlx, arm, fir, or a spec like pipeline:depth=8,width=32")
	fs.StringVar(&o.top, "top", "", "top module (default: auto-detect)")
	fs.StringVar(&o.libVariant, "lib", "HS", "technology library variant: HS or LL")
	fs.BoolVar(&o.desync, "desync", false, "run the desynchronization (DS-*) rules as well")
	fs.StringVar(&o.sdcIn, "sdc", "", "SDC constraints for the DS-SDC/DS-MARGIN cross-checks (implies -desync)")
	fs.BoolVar(&o.midflow, "midflow", false, "mid-flow snapshot: suspend the floating-net rule")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the report as JSON")
	fs.StringVar(&o.baseline, "baseline", "", "baseline file of accepted findings (rule|module|inst|net per line)")
	fs.StringVar(&o.writeBaseline, "write-baseline", "", "write the current findings as a baseline file and exit 0")
	fs.BoolVar(&o.rules, "rules", false, "print the rule catalog and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.rules {
		for _, ri := range lint.Rules {
			fmt.Fprintf(stdout, "%-12s %-8s %s\n", ri.ID, ri.Severity, ri.Summary)
		}
		return 0
	}
	if (o.in == "") == (o.gen == "") {
		fmt.Fprintln(stderr, "drlint: exactly one of -in or -gen is required")
		fs.Usage()
		return 2
	}
	code, err := lintRun(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "drlint:", err)
		return 2
	}
	return code
}

func lintRun(o lintOpts, stdout io.Writer) (int, error) {
	lib := stdcells.New(stdcells.Variant(o.libVariant))
	d, err := loadDesign(o, lib)
	if err != nil {
		return 0, err
	}

	opts := lint.Options{Desync: o.desync, MidFlow: o.midflow}
	if o.sdcIn != "" {
		text, err := os.ReadFile(o.sdcIn)
		if err != nil {
			return 0, err
		}
		cons, err := sdc.Parse(string(text))
		if err != nil {
			return 0, err
		}
		opts.Desync = true
		opts.Constraints = cons
	}
	// Derive the control-network IR once for the whole run; the DS-* rules
	// consume it instead of re-deriving per check.
	if opts.Desync {
		opts.Network = ctrlnet.Derive(d.Top)
	}

	rep := lint.CheckDesign(d, opts)
	if o.baseline != "" {
		f, err := os.Open(o.baseline)
		if err != nil {
			return 0, err
		}
		base, err := lint.ParseBaseline(f)
		f.Close()
		if err != nil {
			return 0, err
		}
		rep.ApplyBaseline(base)
	}

	if o.jsonOut {
		out, err := rep.JSON()
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		fmt.Fprint(stdout, rep.Text())
	}
	if o.writeBaseline != "" {
		if err := os.WriteFile(o.writeBaseline, []byte(rep.BaselineText()), 0o644); err != nil {
			return 0, err
		}
		return 0, nil
	}
	if rep.Errors() > 0 {
		return 1, nil
	}
	return 0, nil
}

// loadDesign reads the input netlist or builds one of the case-study
// generators.
func loadDesign(o lintOpts, lib *netlist.Library) (*netlist.Design, error) {
	if o.gen != "" {
		return designs.ParseSpec(o.gen, lib)
	}
	src, err := os.ReadFile(o.in)
	if err != nil {
		return nil, err
	}
	return verilog.Read(string(src), lib, o.top)
}
