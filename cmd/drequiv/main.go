// Command drequiv is the formal flow-equivalence engine: it compiles a
// desynchronized control network into a token-marking model and
// model-checks deadlock-freedom, master/slave phase safety and flow
// equivalence against the synchronous schedule, reporting violations as
// concrete counterexample traces.
//
// Usage:
//
//	drequiv -in design.v [-top name] [-lib HS|LL] [-max-states N] \
//	        [-no-reduce] [-xval N] [-seed S] [-dump-ce trace.json] [-json]
//	drequiv -gen dlx|arm|fir [...]
//	drequiv -gen pipeline:depth=32,width=64,regions=100 [...]
//	drequiv -gen dlx -replay trace.json
//	drequiv -gen dlx -static [-json]
//
// -gen converts a designs.ParseSpec spec (dlx, arm, fir, pipeline, riscv,
// des) the way the experiments do — through the verified flow, whose gate
// verdicts go to stderr — and verifies its output, so CI can gate the
// example designs without carrying netlist artifacts. -xval N
// cross-validates the model against N randomized simulator traces (seeded
// with -seed, recorded in the JSON report, so failures reproduce). The
// exploration is one serial breadth-first search; the cross-validation
// traces run on GOMAXPROCS workers. The report — state counts,
// counterexample traces, truncation, cross-validation — is identical at
// any GOMAXPROCS.
// -dump-ce writes the counterexample of a violated property as a JSON
// trace; -replay feeds such a trace back through the gate-level simulator
// to confirm the interleaving dynamically.
//
// -static replaces the exhaustive exploration with the polynomial-time
// marked-graph analysis of internal/mga: structural liveness and safety
// verdicts plus the static period bound and critical handshake cycle. Its
// report is deterministic (byte-identical across runs and GOMAXPROCS
// values) and reaches designs whose state space no marking budget covers.
//
// Exit codes: 0 all properties proved (and replay confirmed), 1 a property
// was disproved (or replay did not confirm), 2 usage or input errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"desync/internal/cliutil"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/equiv"
	"desync/internal/expt"
	"desync/internal/mga"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type equivOpts struct {
	in, gen, top, libVariant string
	maxStates                int
	noReduce, jsonOut        bool
	static                   bool
	xval                     int
	seed                     int64
	dumpCE, replay           string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drequiv", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o equivOpts
	fs.StringVar(&o.in, "in", "", "input desynchronized gate-level Verilog netlist")
	fs.StringVar(&o.gen, "gen", "", "verify a built-in flow instead of a file: dlx, arm, fir, or a spec like pipeline:depth=8,width=32")
	fs.StringVar(&o.top, "top", "", "top module (default: auto-detect)")
	fs.StringVar(&o.libVariant, "lib", "HS", "technology library variant: HS or LL")
	fs.IntVar(&o.maxStates, "max-states", 0, "marking budget (0: engine default); truncation is reported explicitly")
	fs.BoolVar(&o.noReduce, "no-reduce", false, "disable the partial-order reduction (full interleaving)")
	fs.BoolVar(&o.static, "static", false, "run the polynomial-time marked-graph analysis instead of the exhaustive exploration")
	fs.IntVar(&o.xval, "xval", 0, "cross-validate against N randomized simulator traces")
	cliutil.SeedVar(fs, &o.seed, "seed", 1, "PRNG seed for -xval trace generation")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the report as JSON")
	fs.StringVar(&o.dumpCE, "dump-ce", "", "write the counterexample trace of a violated property to this JSON file")
	fs.StringVar(&o.replay, "replay", "", "replay a dumped counterexample trace through the simulator and confirm it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (o.in == "") == (o.gen == "") {
		fmt.Fprintln(stderr, "drequiv: exactly one of -in or -gen is required")
		fs.Usage()
		return 2
	}
	ctx, cancel := cliutil.Context()
	defer cancel()
	code, err := equivRun(ctx, o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "drequiv:", err)
		return 2
	}
	return code
}

func equivRun(ctx context.Context, o equivOpts, stdout, stderr io.Writer) (int, error) {
	mod, err := loadModule(o, stderr)
	if err != nil {
		return 0, err
	}
	if o.static {
		return staticRun(o, mod, stdout)
	}
	// One control-network derivation serves the whole run: the model
	// extraction here, and (via the memoized cache) anything downstream
	// that derives again on the same module.
	m, err := equiv.FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		return 0, err
	}

	if o.replay != "" {
		return replayRun(o, mod, m, stdout)
	}

	res, err := m.Explore(ctx, equiv.ExploreOptions{MaxStates: o.maxStates, NoReduce: o.noReduce})
	if err != nil {
		return 0, err
	}
	if o.xval > 0 && res.Violation == nil {
		xv, err := m.CrossValidate(ctx, mod, equiv.XValConfig{Traces: o.xval, Seed: o.seed})
		if err != nil {
			return 0, err
		}
		res.XVal = xv
	}
	res.Model = &equiv.ModelInfo{Findings: m.Findings}

	if o.dumpCE != "" {
		tr := res.CounterexampleTrace()
		if tr == nil && res.XVal != nil && res.XVal.Divergence != nil {
			d := res.XVal.Divergence
			tr = &equiv.Trace{
				Design: res.Design, Rule: equiv.RuleXVal,
				Msg:    fmt.Sprintf("simulated trace %d diverged on %s at t=%.3f ns", d.TraceIndex, d.Net, d.Time),
				Events: d.Observed, Marking: d.Marking, Seed: res.XVal.Seed,
			}
		}
		if tr == nil {
			fmt.Fprintln(stdout, "drequiv: no counterexample to dump (all properties proved)")
		} else if err := writeTraceFile(o.dumpCE, tr); err != nil {
			return 0, err
		}
	}

	if o.jsonOut {
		if err := res.WriteJSON(stdout); err != nil {
			return 0, err
		}
	} else {
		res.WriteText(stdout)
	}
	if !res.Clean() {
		return 1, nil
	}
	return 0, nil
}

// staticRun is the -static mode: the marked-graph analysis in place of
// the BFS. Exit 1 on any error-severity finding, mirroring the explore
// path's disproved-property exit.
func staticRun(o equivOpts, mod *netlist.Module, stdout io.Writer) (int, error) {
	rep, err := mga.Analyze(mod, ctrlnet.Derive(mod), mga.Options{})
	if err != nil {
		return 0, err
	}
	if o.jsonOut {
		if err := rep.WriteJSON(stdout); err != nil {
			return 0, err
		}
	} else {
		rep.WriteText(stdout)
		for _, f := range rep.ModelFindings {
			fmt.Fprintf(stdout, "%s\n", f.String())
		}
	}
	if rep.LintReport(rep.ModelFindings).Errors() > 0 {
		return 1, nil
	}
	return 0, nil
}

func replayRun(o equivOpts, mod *netlist.Module, m *equiv.Model, stdout io.Writer) (int, error) {
	f, err := os.Open(o.replay)
	if err != nil {
		return 0, err
	}
	tr, err := equiv.ReadTrace(f)
	f.Close()
	if err != nil {
		return 0, err
	}
	rep, err := equiv.Replay(mod, m, tr)
	if err != nil {
		return 0, err
	}
	if o.jsonOut {
		out, err := jsonIndent(rep)
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(stdout, out)
	} else {
		verdict := "NOT confirmed"
		if rep.Confirmed {
			verdict = "confirmed"
		}
		fmt.Fprintf(stdout, "replay: %s counterexample %s: %s\n", tr.Rule, verdict, rep.Detail)
		fmt.Fprintf(stdout, "  %d events forced, %d enable transitions after release\n", rep.Steps, rep.PostEvents)
		for _, d := range rep.Diagnostics {
			fmt.Fprintf(stdout, "  watchdog: %s\n", d)
		}
	}
	if !rep.Confirmed {
		return 1, nil
	}
	return 0, nil
}

func writeTraceFile(path string, tr *equiv.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := equiv.WriteTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadModule reads the input netlist or converts the -gen spec through
// the experiments' flow, reporting its gate verdicts on stderr, and returns
// the desynchronized top module.
func loadModule(o equivOpts, stderr io.Writer) (*netlist.Module, error) {
	if o.gen != "" {
		if !designs.ValidSpec(o.gen) {
			return nil, fmt.Errorf("unknown -gen design %q (want %s, with pipeline key=value params)", o.gen, strings.Join(designs.SpecNames(), "|"))
		}
		f, err := expt.RunFlow(o.gen, expt.FlowConfig{})
		if err != nil {
			return nil, err
		}
		io.WriteString(stderr, f.RenderGates())
		return f.Design.Top, nil
	}
	lib := stdcells.New(stdcells.Variant(o.libVariant))
	src, err := os.ReadFile(o.in)
	if err != nil {
		return nil, err
	}
	d, err := verilog.Read(string(src), lib, o.top)
	if err != nil {
		return nil, err
	}
	return d.Top, nil
}

func jsonIndent(v any) (string, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}
