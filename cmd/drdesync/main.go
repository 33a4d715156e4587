// Command drdesync is the desynchronization tool of the paper (§3.2): it
// reads a post-synthesis gate-level Verilog netlist, applies the
// desynchronization methodology — logic cleaning, automatic region
// creation, flip-flop substitution, dependency-graph construction, matched
// delay-element sizing and controller-network insertion — and writes the
// desynchronized netlist plus the backend timing constraints.
//
// Usage:
//
//	drdesync -in design.v [-top name] [-lib HS|LL] [-period 2.4] \
//	         [-mux] [-margin 1.15] [-falsepath net1,net2] [-manual-groups] \
//	         [-simplify-names] [-faults] -out out.v [-sdc out.sdc] [-blif out.blif]
//	drdesync -gen pipeline:depth=32,width=64,regions=100 -out out.v [...]
//
// -gen desynchronizes a generated design instead of a file: a fixed case
// study (dlx, arm, fir) or a parametric spec in the designs.ParseSpec
// grammar. Pre-grouped generators (arm, the pipeline family) imply
// -manual-groups.
//
// When the automatic grouping finds no regions the tool degrades to a
// single-region desynchronization (the ARM-style fallback of §5.3) with a
// warning; when a sized delay element does not cover its region's budget
// the tool bumps the margin and retries. -faults runs a fault-injection
// campaign against the result and prints the detection report. The
// parallel kernels — delay-element sizing, the -equiv gate, the -faults
// campaign — run GOMAXPROCS workers (set the GOMAXPROCS environment
// variable to bound them); every output is identical at any value. Ctrl-C
// cancels the run cleanly between stages.
//
// After export the tool always runs the static marked-graph gate
// (internal/mga): polynomial-time liveness, token-bound safety and a
// static period bound over the inserted control network, deterministic at
// any GOMAXPROCS. The optional -equiv gate then explores the same
// extraction exhaustively; when the design's protocol-state estimate
// exceeds the -equiv-max-states reach, the static gate stands alone and
// the tool says so explicitly instead of truncating a search.
//
// The gates and fallbacks are internal/vflow's, the same sequence the
// drserve job server runs; this command renders their outcome.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"desync/internal/blif"
	"desync/internal/cliutil"
	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/twophase"
	"desync/internal/verilog"
	"desync/internal/vflow"
)

// runOpts is the command line: the input and output files plus the
// verified flow's options, which most flags set directly.
type runOpts struct {
	in, gen, top, libVariant    string
	out, sdcOut, blifOut, tbOut string
	falsePaths                  string
	simplify, cdet              bool
	vflow.Options
}

func main() {
	var o runOpts
	flag.StringVar(&o.in, "in", "", "input gate-level Verilog netlist (required unless -gen)")
	flag.StringVar(&o.gen, "gen", "", "desynchronize a generated design instead of a file: dlx, arm, fir, or a spec like pipeline:depth=8,width=32")
	flag.StringVar(&o.top, "top", "", "top module (default: auto-detect)")
	flag.StringVar(&o.libVariant, "lib", "HS", "technology library variant: HS or LL")
	flag.StringVar(&o.Flow.Backend, "backend", "", "clocking-conversion backend: "+strings.Join(core.BackendNames(), " or ")+" (default desync)")
	flag.Float64Var(&o.Flow.Period, "period", 0, "original clock period in ns for constraint generation")
	flag.BoolVar(&o.Flow.MuxTaps, "mux", false, "build 8-tap multiplexed delay elements (adds delsel[2:0] ports)")
	flag.Float64Var(&o.Flow.Margin, "margin", 1.15, "delay-element sizing margin")
	flag.StringVar(&o.falsePaths, "falsepath", "", "comma-separated nets to ignore during grouping")
	flag.BoolVar(&o.Flow.ManualGroups, "manual-groups", false, "keep hierarchy-derived regions instead of auto grouping")
	flag.BoolVar(&o.simplify, "simplify-names", false, "rewrite escaped names as simple identifiers first")
	flag.StringVar(&o.out, "out", "", "output Verilog netlist (required)")
	flag.StringVar(&o.sdcOut, "sdc", "", "output SDC constraints file")
	flag.StringVar(&o.blifOut, "blif", "", "output BLIF netlist (SIS export)")
	flag.BoolVar(&o.Flow.SkipClean, "no-clean", false, "skip buffer/inverter-pair removal")
	flag.BoolVar(&o.cdet, "cdet", false, "use dual-rail completion detection instead of matched delay elements (§2.4.4)")
	flag.StringVar(&o.tbOut, "tb", "", "output a behavioural testbench skeleton (§4.8)")
	flag.BoolVar(&o.Equiv, "equiv", false, "model-check the inserted control network (deadlock, phase safety, flow equivalence)")
	flag.IntVar(&o.EquivMaxStates, "equiv-max-states", 0, "marking budget for the -equiv gate (0: engine default)")
	flag.IntVar(&o.EquivXval, "equiv-xval", 0, "cross-validate the -equiv model against N randomized simulator traces")
	cliutil.SeedVar(flag.CommandLine, &o.EquivSeed, "equiv-seed", 1, "PRNG seed for -equiv-xval traces")
	flag.BoolVar(&o.Faults, "faults", false, "run a fault-injection campaign on the desynchronized design")
	flag.IntVar(&o.FaultCycles, "fault-cycles", vflow.DefaultFaultCycles, "campaign run length in clock periods")
	flag.IntVar(&o.FaultsPerRegion, "faults-per-region", vflow.DefaultFaultsPerRegion, "delay faults injected per region")
	flag.Parse()
	if (o.in == "") == (o.gen == "") || o.out == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Construction panics (library misuse, malformed internal state) that
	// escape the error paths become one-line diagnostics, not stack traces:
	// the tool's contract with scripts driving it is exit codes and stderr.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "drdesync: internal error: %v\n", r)
			os.Exit(3)
		}
	}()
	interrupted, err := cliutil.RunDrained(func(ctx context.Context) error {
		_, err := run(ctx, o, os.Stdout, os.Stderr)
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "drdesync:", err)
		if interrupted {
			fmt.Fprintln(os.Stderr, "drdesync: interrupted; the flow drained at a stage boundary")
		} else if stage := core.StageOf(err); stage != "" {
			fmt.Fprintf(os.Stderr, "drdesync: failed during the %s stage\n", stage)
		}
		os.Exit(1)
	}
}

// run desynchronizes one design through the verified flow, renders the
// outcome on stdout/stderr and writes the requested artifacts. It returns
// the outcome even when the flow fails, for callers that inspect verdicts.
func run(ctx context.Context, o runOpts, stdout, stderr io.Writer) (*vflow.Outcome, error) {
	variant := stdcells.Variant(o.libVariant)
	if _, err := stdcells.NewChecked(variant); err != nil {
		return nil, err
	}

	var src []byte
	if o.in != "" {
		var err error
		if src, err = os.ReadFile(o.in); err != nil {
			return nil, err
		}
	}
	opts := o.Options
	if o.falsePaths != "" {
		opts.Flow.FalsePaths = strings.Split(o.falsePaths, ",")
	}
	if o.cdet {
		opts.Flow.Mode = core.ModeCompletion
	}
	// Pre-grouped generators (arm, the pipeline family) bake their region
	// assignment into the instances.
	opts.Flow.ManualGroups = opts.Flow.ManualGroups || designs.PreGrouped(o.gen)
	out, err := vflow.Run(ctx, func() (*netlist.Design, error) {
		var d *netlist.Design
		var err error
		if o.gen != "" {
			d, err = designs.ParseSpec(o.gen, stdcells.New(variant))
		} else {
			d, err = verilog.Read(string(src), stdcells.New(variant), o.top)
		}
		if err == nil && o.simplify {
			fmt.Fprintf(stdout, "simplified %d names\n", core.SimplifyNames(d.Top))
		}
		return d, err
	}, opts)
	report(out, stdout, stderr)
	if err != nil {
		return out, err
	}
	d, res := out.Design, out.Result

	if err := writeText(o.out, verilog.Write(d)); err != nil {
		return out, err
	}
	if o.sdcOut != "" {
		if err := writeText(o.sdcOut, res.Constraints.Write()); err != nil {
			return out, err
		}
	}
	if o.tbOut != "" {
		if res.Backend != core.BackendDesync {
			fmt.Fprintf(stderr, "drdesync: -tb drives the handshake reset protocol; not applicable to the %s backend, skipped\n", res.Backend)
		} else if err := writeText(o.tbOut, core.WriteTestbench(d, res, "", o.Flow.Period)); err != nil {
			return out, err
		}
	}
	if o.blifOut != "" {
		text, err := blif.Write(d.Top)
		if err != nil {
			return out, err
		}
		if err := writeText(o.blifOut, text); err != nil {
			return out, err
		}
	}
	return out, nil
}

// writeText writes text to path as os.WriteFile would, without first
// copying it into a byte slice (the exported netlist runs to megabytes).
func writeText(path, text string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteString(text)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// report renders an outcome as far as the run got: the conversion summary
// and each gate's report on stdout; gate findings, fallbacks and skipped or
// downgraded gates on stderr.
func report(out *vflow.Outcome, stdout, stderr io.Writer) {
	findings(stderr, out.Verdict(vflow.GatePreImport))
	for _, f := range out.Degraded {
		fmt.Fprintf(stderr, "drdesync: warning: %s\n", f.Reason)
	}
	res := out.Result
	if res == nil {
		return
	}
	fmt.Fprintf(stdout, "cleaned %d buffering cells\n", res.CleanedCells)
	fmt.Fprintf(stdout, "regions: %d (+%d cells in group 0)\n", res.Grouping.Groups, res.Grouping.Group0)
	fmt.Fprintf(stdout, "flip-flops substituted: %d (+%d helper gates)\n",
		res.Substitution.FFs, res.Substitution.ExtraGates)
	if tp, ok := res.BackendResult.(*twophase.Result); ok {
		fmt.Fprintf(stdout, "two-phase generator: ring %d levels, non-overlap %d levels, period %.3f ns (non-overlap gap %.3f ns)\n",
			tp.RingLevels, tp.NovLevels, tp.Period, tp.NonOverlap)
		fmt.Fprintf(stdout, "phase distribution: %d regions, %d generator cells, %d distribution buffers\n",
			len(tp.Regions), tp.GenCells, tp.DistBufs)
	} else if res.Backend == core.BackendDesync {
		nodes := append([]int(nil), res.DDG.Nodes...)
		sort.Ints(nodes)
		for _, g := range nodes {
			fmt.Fprintf(stdout, "  region %d: succs %v, comb %.3f ns, delay element %d levels\n",
				g, res.DDG.Succs[g], res.RegionDelays[g].CombMax, res.DelayLevels[g])
		}
		fmt.Fprintf(stdout, "controllers: %d, C-tree cells: %d, delay cells: %d\n",
			res.Insert.Controllers, res.Insert.CTreeCells, res.Insert.DelayCells)
		fmt.Fprintf(stdout, "control network: %d regions derived, insert-claim cross-check clean\n",
			len(res.Network.Regions))
	}

	for _, v := range out.Verdicts {
		switch {
		case v.Step == vflow.GatePreImport:
			continue
		case v.Status == vflow.Downgraded:
			fmt.Fprintf(stderr, "drdesync: warning: %s gate downgraded: %s\n", v.Step, v.Reason)
		case v.Status == vflow.Skipped && v.Step == vflow.GateStatic:
			// The always-on static gate's skip under another backend
			// follows from -backend alone; a desynchronization it cannot
			// model says why.
			if res.Backend == core.BackendDesync {
				fmt.Fprintf(stderr, "drdesync: static gate skipped: %s\n", v.Reason)
			}
		case v.Status == vflow.Skipped:
			fmt.Fprintf(stderr, "drdesync: -%s %s, skipped\n", v.Step, v.Reason)
		}
		switch {
		case v.Step == vflow.GateStatic && out.Static != nil:
			out.Static.WriteText(stdout)
		case v.Step == vflow.GateEquiv && out.Equiv != nil:
			out.Equiv.WriteText(stdout)
		case v.Step == vflow.GateFaults && out.Faults != nil:
			io.WriteString(stdout, out.Faults.Render())
		}
		findings(stderr, v)
		if v.Step == vflow.GateEquiv && out.Equiv != nil && out.Equiv.Truncated {
			fmt.Fprintf(stderr, "drdesync: equiv gate truncated at %d markings; properties hold only up to this bound\n", out.Equiv.States)
		}
	}
}

// findings prints every finding of a gate's lint-form report.
func findings(w io.Writer, v vflow.Verdict) {
	if v.Findings == nil || len(v.Findings.Findings) == 0 {
		return
	}
	label := v.Step
	if label == vflow.GateLint {
		label = "post-export"
	}
	fmt.Fprintf(w, "drdesync: %s lint:\n", label)
	for _, f := range v.Findings.Findings {
		fmt.Fprintf(w, "  %s\n", f)
	}
}
