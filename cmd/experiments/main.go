// Command experiments regenerates the paper's evaluation: Tables 5.1 and
// 5.2, Figures 5.3, 5.4 and 5.5, plus Table 2.1 and the Fig 2.4 protocol
// classification.
//
// Usage:
//
//	experiments -all
//	experiments -table 5.1 | -table 5.2
//	experiments -fig 2.4 | -fig 5.3 | -fig 5.4 | -fig 5.5
//	experiments -faults
//	experiments -sweep
//	experiments -static
//	experiments -backends
//	            [-cycles 25] [-chips 60] [-sel 3] [-seed 5]
//
// The parallel kernels (the fault campaign, the sweep, the equiv
// exploration) run GOMAXPROCS workers; every table is identical at any
// value.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"desync/internal/cliutil"
	"desync/internal/core"
	"desync/internal/expt"
	"desync/internal/expt/static"
	"desync/internal/netlist"
)

func main() {
	var (
		all     = flag.Bool("all", false, "run everything")
		table   = flag.String("table", "", "regenerate a table: 2.1, 5.1 or 5.2")
		fig     = flag.String("fig", "", "regenerate a figure: 2.4, 5.3, 5.4 or 5.5")
		cycles  = flag.Int("cycles", 25, "simulated cycles per measurement")
		chips   = flag.Int("chips", 60, "Monte Carlo population for Fig 5.4")
		sel     = flag.Int("sel", 3, "delay selection for Fig 5.4 (-1 = fixed sized elements)")
		faults  = flag.Bool("faults", false, "run the DLX fault-injection campaign")
		doSweep = flag.Bool("sweep", false, "sweep the DLX robustness surface (corners x chips x faults)")
		doStat  = flag.Bool("static", false, "cross-check the static marked-graph engine against simulation and the BFS")
		doBacks = flag.Bool("backends", false, "compare the clocking-conversion backends (area, cycle time) over the case studies")
		scale   = flag.String("scale", "", "measure the netlist-core scaling table at these comma-separated instance counts (e.g. 10000,100000,1000000)")
	)
	var seed int64
	cliutil.SeedVar(flag.CommandLine, &seed, "seed", 5, "random seed")
	flag.Parse()
	if !*all && *table == "" && *fig == "" && !*faults && !*doSweep && !*doStat && !*doBacks && *scale == "" {
		flag.Usage()
		os.Exit(2)
	}
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "experiments: internal error: %v\n", r)
			os.Exit(3)
		}
	}()
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *all || *table == "2.1" {
		fmt.Println(expt.Table21())
	}
	if *all || *fig == "2.4" {
		run("fig 2.4", func() error {
			rows, err := expt.Fig24()
			if err != nil {
				return err
			}
			fmt.Println(expt.RenderFig24(rows))
			return nil
		})
	}
	if *all || *table == "5.1" {
		run("table 5.1", func() error {
			tbl, f, err := expt.Table51()
			if err != nil {
				return err
			}
			fmt.Println(tbl.Render())
			fmt.Printf("  synchronous clock period (STA): best %.3f ns, worst %.3f ns\n",
				tbl.BestPeriod, f.Period)
			ab, err := expt.ControlOverhead(f, *cycles)
			if err != nil {
				return err
			}
			fmt.Printf("  as-sized DDLX effective period (worst): %.3f ns (%.1f%% over DLX)\n",
				ab.DesyncPeriod, ab.OverheadPct)
			fmt.Println(f.RenderGates())
			return nil
		})
	}
	if *all || *fig == "5.3" || *fig == "5.5" {
		run("fig 5.3/5.5", func() error {
			sweep, f, err := expt.Fig53(*cycles)
			if err != nil {
				return err
			}
			if *all || *fig == "5.3" {
				fmt.Println(sweep.Render() + f.RenderGates())
			}
			if *all || *fig == "5.5" {
				fmt.Println(sweep.RenderPower())
				fmt.Printf("  DLX power: best %.3f mW, worst %.3f mW\n",
					sweep.DLXPower[netlist.Best], sweep.DLXPower[netlist.Worst])
				fmt.Println(f.RenderGates())
			}
			return nil
		})
	}
	if *all || *fig == "5.4" {
		run("fig 5.4", func() error {
			mc, f, err := expt.Fig54(*chips, *cycles, *sel, seed)
			if err != nil {
				return err
			}
			fmt.Println(mc.Render() + f.RenderGates())
			return nil
		})
	}
	if *all || *fig == "ssta" {
		run("ssta", func() error {
			f, err := expt.RunFlow("dlx", expt.FlowConfig{})
			if err != nil {
				return err
			}
			rows, err := expt.SSTAMatching(f)
			if err != nil {
				return err
			}
			fmt.Println(expt.RenderSSTA(rows) + f.RenderGates())
			return nil
		})
	}
	if *all || *faults {
		run("faults", func() error {
			ctx, cancel := cliutil.Context()
			defer cancel()
			f, err := expt.RunFlow("dlx", expt.FlowConfig{})
			if err != nil {
				return err
			}
			rep, err := expt.RunFaultCampaign(ctx, f, expt.FaultCampaignConfig{Glitches: true})
			if err != nil {
				return err
			}
			fmt.Println(rep.Render() + f.RenderGates())
			return nil
		})
	}
	if *all || *doStat {
		run("static", func() error {
			tab, err := static.Run(static.Options{SimCycles: *cycles * 16})
			if err != nil {
				return err
			}
			static.Render(os.Stdout, tab)
			fmt.Println()
			return nil
		})
	}
	if *all || *doBacks {
		run("backends", func() error {
			rows, err := expt.CompareBackends(expt.DefaultComparisonSpecs,
				[]string{core.BackendDesync, core.BackendTwoPhase}, expt.FlowConfig{})
			if err != nil {
				return err
			}
			fmt.Println(expt.RenderBackendTable(rows))
			return nil
		})
	}
	if *all || *doSweep {
		run("sweep", func() error {
			ctx, cancel := cliutil.Context()
			defer cancel()
			f, err := expt.RunFlow("dlx", expt.FlowConfig{})
			if err != nil {
				return err
			}
			rep, err := expt.RobustnessSurface(ctx, f, expt.SurfaceConfig{Seed: seed})
			if err != nil {
				return err
			}
			rows, err := expt.SSTAMatching(f)
			if err != nil {
				return err
			}
			fmt.Println(expt.RenderSurface(rep, rows) + f.RenderGates())
			return nil
		})
	}
	if *all || *table == "5.2" {
		run("table 5.2", func() error {
			tbl, f, err := expt.Table52()
			if err != nil {
				return err
			}
			fmt.Println(tbl.Render())
			fmt.Printf("  scan chain: %d flip-flops, random-pattern stuck-at coverage %.1f%%\n",
				tbl.ScanChain, tbl.Coverage*100)
			fmt.Println(f.RenderGates())
			return nil
		})
	}
	if *scale != "" {
		run("scale", func() error {
			var targets []int
			for _, s := range strings.Split(*scale, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n < 1 {
					return fmt.Errorf("bad -scale size %q", s)
				}
				targets = append(targets, n)
			}
			ctx, cancel := cliutil.Context()
			defer cancel()
			return expt.RenderScaleTable(ctx, os.Stdout, targets)
		})
	}
}
