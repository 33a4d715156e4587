// Command drsweep sweeps the robustness surface of a desynchronized
// design: the fault-injection matrix (under-margin delay, control
// stuck-at, optional glitch faults) evaluated over a PVT corner grid with
// Monte Carlo intra-die mismatch on top — the Fig 5.3/5.4-style
// measurement over the full cross-product the original paper sampled at
// two points. The default subject is the DLX case study; -gen accepts any
// designs.ParseSpec generator spec (arm, fir, pipeline:depth=8,width=32,
// ...). Each is converted the way the experiments convert it, through the
// verified flow, whose gate verdicts go to stderr unless -quiet.
//
// Usage:
//
//	drsweep [-gen dlx] [-corners 3] [-chips 3] [-sigma 0.05] [-cycles 6]
//	        [-delay-factor 40] [-per-region 2] [-glitches]
//	        [-checkpoint sweep.journal] [-resume] [-fsync-every 64]
//	        [-scenario-timeout 30s] [-max-failures N]
//	        [-seed 5] [-json] [-quiet]
//
// The sweep streams: scenarios run on GOMAXPROCS workers, fold in scenario
// order into bounded-memory aggregates, and (with -checkpoint) into an
// append-only journal. Ctrl-C or SIGTERM cancels cleanly after the
// journal's current prefix is durable; rerunning with -resume replays that
// prefix and continues, converging to the same report byte-for-byte as an
// uninterrupted run at any GOMAXPROCS. Scenarios that panic or exceed
// -scenario-timeout are quarantined as recorded failures, never a crashed
// sweep; -max-failures stops gracefully once the budget is spent.
//
// Exit codes: 0 sweep completed (check the report for escapes), 1 sweep
// aborted (including interruption — resume with -resume), 2 usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"desync/internal/cliutil"
	"desync/internal/expt"
	"desync/internal/faults"
	"desync/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type sweepOpts struct {
	gen                     string
	corners, chips, cycles  int
	sigma                   float64
	delayFactor             float64
	perRegion               int
	glitches                bool
	checkpoint              string
	resume                  bool
	fsyncEvery, maxFailures int
	scenarioTimeout         time.Duration
	seed                    int64
	jsonOut, quiet          bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o sweepOpts
	fs.StringVar(&o.gen, "gen", "dlx", "design to sweep: dlx, or any spec like pipeline:depth=8,width=32")
	fs.IntVar(&o.corners, "corners", 3, "PVT grid points across [1, CornerSpread]")
	fs.IntVar(&o.chips, "chips", 3, "Monte Carlo chips (intra-die draws) per corner")
	fs.Float64Var(&o.sigma, "sigma", 0.05, "per-instance intra-die mismatch sigma")
	fs.IntVar(&o.cycles, "cycles", 6, "simulated original-clock cycles per scenario")
	fs.Float64Var(&o.delayFactor, "delay-factor", faults.DelayFactor, "delay-fault factor (raised per gate until under-margin)")
	fs.IntVar(&o.perRegion, "per-region", faults.DefaultDelayPerRegion, "delay faults per region (most active gates first)")
	fs.BoolVar(&o.glitches, "glitches", false, "include the glitch faults (informative: glitches may escape)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "append-only journal path for crash/SIGTERM resume")
	fs.BoolVar(&o.resume, "resume", false, "replay the -checkpoint journal's clean prefix and continue it")
	fs.IntVar(&o.fsyncEvery, "fsync-every", 64, "journal records per fsync (1: every record)")
	fs.IntVar(&o.maxFailures, "max-failures", 0, "stop gracefully after this many quarantined scenarios (0: no budget)")
	cliutil.DurationVar(fs, &o.scenarioTimeout, "scenario-timeout", 0, "wall-clock budget per scenario; overruns are quarantined")
	cliutil.SeedVar(fs, &o.seed, "seed", 5, "random seed for the Monte Carlo chip draws")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the report as JSON")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress progress on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.resume && o.checkpoint == "" {
		fmt.Fprintln(stderr, "drsweep: -resume needs -checkpoint")
		return 2
	}

	var progress func(done, total int)
	if !o.quiet {
		last := -1
		progress = func(done, total int) {
			// One line per ~5%: visible on an hours-long sweep, silent cost.
			step := total / 20
			if step < 1 {
				step = 1
			}
			if done/step != last || done == total {
				last = done / step
				fmt.Fprintf(stderr, "drsweep: %d/%d scenarios\n", done, total)
			}
		}
	}

	var rep *sweep.Report
	interrupted, err := cliutil.RunDrained(func(ctx context.Context) error {
		cfg := expt.SurfaceConfig{
			Corners: o.corners, Chips: o.chips, Sigma: o.sigma,
			Cycles: o.cycles, DelayFactor: o.delayFactor,
			DelayPerRegion: o.perRegion, Glitches: o.glitches, Seed: o.seed,
			Checkpoint: o.checkpoint, Resume: o.resume, FsyncEvery: o.fsyncEvery,
			ScenarioTimeout: o.scenarioTimeout, MaxFailures: o.maxFailures,
			Progress: progress,
		}
		f, err := expt.RunFlow(o.gen, expt.FlowConfig{})
		if err != nil {
			return err
		}
		if !o.quiet {
			io.WriteString(stderr, f.RenderGates())
		}
		rep, err = expt.RobustnessSurface(ctx, f, cfg)
		return err
	})
	if err != nil {
		if interrupted && o.checkpoint != "" {
			fmt.Fprintf(stderr, "drsweep: interrupted; journal %s holds the completed prefix — rerun with -resume\n", o.checkpoint)
		} else {
			fmt.Fprintf(stderr, "drsweep: %v\n", err)
		}
		return 1
	}
	if o.jsonOut {
		if err := rep.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "drsweep: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, rep.Render())
	return 0
}
