// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks — one benchmark per table/figure, plus
// ablation benchmarks for the design choices DESIGN.md calls out, and
// micro-benchmarks of the flow's engines. Key measured quantities are
// attached via b.ReportMetric so `go test -bench . -benchmem` prints the
// reproduced series next to the runtimes.
package bench

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/dft"
	"desync/internal/equiv"
	"desync/internal/expt"
	"desync/internal/faults"
	"desync/internal/lint"
	"desync/internal/logic"
	"desync/internal/mga"
	"desync/internal/netlist"
	"desync/internal/pnr"
	"desync/internal/sim"
	"desync/internal/sta"
	"desync/internal/stdcells"
	"desync/internal/stg"
	"desync/internal/variability"
	"desync/internal/verilog"
)

// BenchmarkTable21CMuller evaluates the C-Muller element truth table
// (Table 2.1) via the library cell's generalized-C functions.
func BenchmarkTable21CMuller(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	c := lib.MustCell("C3X1")
	env := map[string]logic.V{}
	for i := 0; i < b.N; i++ {
		for mask := 0; mask < 8; mask++ {
			env["A"] = logic.FromBool(mask&1 == 1)
			env["B"] = logic.FromBool(mask&2 == 2)
			env["C"] = logic.FromBool(mask&4 == 4)
			set := c.GC.Set.Eval(env) == logic.H
			reset := c.GC.Reset.Eval(env) == logic.H
			if set != (mask == 7) || reset != (mask == 0) {
				b.Fatal("C element truth table broken")
			}
		}
	}
}

// BenchmarkFig24Protocols classifies the protocol lattice (Fig 2.4):
// reachable-state counts, liveness and flow equivalence over a latch ring.
func BenchmarkFig24Protocols(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig24()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatal("protocol lattice incomplete")
		}
	}
}

// BenchmarkTable51DLXArea implements both DLX branches down to layout and
// reports the core-size overhead of Table 5.1.
func BenchmarkTable51DLXArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, _, err := expt.Table51()
		if err != nil {
			b.Fatal(err)
		}
		core51, _ := expt.Find(tbl.PostLayout, "core size (um2)")
		seq, _ := expt.Find(tbl.PostSynthesis, "sequential logic (um2)")
		b.ReportMetric(core51.Overhead, "coreOverhead%")
		b.ReportMetric(seq.Overhead, "seqOverhead%")
	}
}

// BenchmarkTable52ARMArea implements both ARM branches (scan design,
// Low-Leakage library, single region) and reports Table 5.2's overheads.
func BenchmarkTable52ARMArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, _, err := expt.Table52()
		if err != nil {
			b.Fatal(err)
		}
		core52, _ := expt.Find(tbl.PostLayout, "core size (um2)")
		seq, _ := expt.Find(tbl.PostSynthesis, "sequential logic (um2)")
		b.ReportMetric(core52.Overhead, "coreOverhead%")
		b.ReportMetric(seq.Overhead, "seqOverhead%")
	}
}

// BenchmarkFig53Timing sweeps the 8-tap delay-element selection at both
// corners (Fig 5.3) and reports the best working setup and its period.
func BenchmarkFig53Timing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, _, err := expt.Fig53(20)
		if err != nil {
			b.Fatal(err)
		}
		if sweep.BestSelection != 2 {
			b.Fatalf("best selection %d, want 2", sweep.BestSelection)
		}
		for _, p := range sweep.DDLX {
			if p.Selection == sweep.BestSelection && p.Corner == netlist.Worst {
				b.ReportMetric(p.Period, "bestSetupWorst_ns")
			}
		}
	}
}

// BenchmarkFig54Variability samples an inter-die population and reports the
// fraction of chips on which the desynchronized DLX beats the synchronous
// worst-case clock (Fig 5.4).
func BenchmarkFig54Variability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mc, _, err := expt.Fig54(16, 12, 3, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mc.FasterFraction*100, "fasterChips%")
	}
}

// BenchmarkFig55Power reruns the selection sweep and reports the power at
// the best working setup, worst corner (Fig 5.5).
func BenchmarkFig55Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, _, err := expt.Fig53(20)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range sweep.DDLX {
			if p.Selection == 2 && p.Corner == netlist.Worst {
				b.ReportMetric(p.PowerMW, "ddlxPower_mW")
			}
		}
		b.ReportMetric(sweep.DLXPower[netlist.Worst], "dlxPower_mW")
	}
}

// ---- Ablations ----

// BenchmarkAblationMargin varies the delay-element sizing margin and
// reports the resulting effective period: the cost of conservatism. A
// margin under 1.0 under-covers some region, so the verified flow bumps
// it by 15% per fallback until every element covers its budget; the
// fallback count says how often it did.
func BenchmarkAblationMargin(b *testing.B) {
	for _, margin := range []float64{0.85, 1.15, 1.5} {
		b.Run(marginName(margin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := expt.RunFlow("dlx", expt.FlowConfig{Margin: margin})
				if err != nil {
					b.Fatal(err)
				}
				run, err := expt.MeasureDDLX(f, netlist.Worst, 1, -1, 20)
				if err != nil {
					b.Fatal(err)
				}
				if !run.Correct {
					b.Fatalf("margin %.2f broke flow equivalence", margin)
				}
				b.ReportMetric(run.EffectivePeriod, "period_ns")
				b.ReportMetric(float64(len(f.Degraded)), "fallbacks")
			}
		})
	}
}

func marginName(m float64) string {
	switch m {
	case 0.85:
		return "margin0.85"
	case 1.15:
		return "margin1.15"
	default:
		return "margin1.50"
	}
}

// BenchmarkAblationSingleRegion desynchronizes the DLX as one region (the
// ARM fallback) and compares its effective period against the four-region
// version: what automatic grouping buys.
func BenchmarkAblationSingleRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f4, err := expt.RunFlow("dlx", expt.FlowConfig{})
		if err != nil {
			b.Fatal(err)
		}
		r4, err := expt.MeasureDDLX(f4, netlist.Worst, 1, -1, 20)
		if err != nil {
			b.Fatal(err)
		}
		f1, err := expt.RunFlow("dlx", expt.FlowConfig{SingleRegion: true})
		if err != nil {
			b.Fatal(err)
		}
		r1, err := expt.MeasureDDLX(f1, netlist.Worst, 1, -1, 20)
		if err != nil {
			b.Fatal(err)
		}
		if !r4.Correct || !r1.Correct {
			b.Fatal("ablation run broke flow equivalence")
		}
		b.ReportMetric(r4.EffectivePeriod, "fourRegions_ns")
		b.ReportMetric(r1.EffectivePeriod, "oneRegion_ns")
	}
}

// BenchmarkAblationCompletionDetection compares the §2.4.4 alternative —
// dual-rail completion networks, true average-case timing — against the
// paper's matched delay elements on the DLX.
func BenchmarkAblationCompletionDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fd, err := expt.RunFlow("dlx", expt.FlowConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rd, err := expt.MeasureDDLX(fd, netlist.Worst, 1, -1, 20)
		if err != nil {
			b.Fatal(err)
		}
		fc, err := expt.RunFlow("dlx", expt.FlowConfig{Mode: core.ModeCompletion})
		if err != nil {
			b.Fatal(err)
		}
		rc, err := expt.MeasureDDLX(fc, netlist.Worst, 1, -1, 20)
		if err != nil {
			b.Fatal(err)
		}
		if !rd.Correct || !rc.Correct {
			b.Fatal("ablation broke flow equivalence")
		}
		b.ReportMetric(rd.EffectivePeriod, "matchedDelay_ns")
		b.ReportMetric(rc.EffectivePeriod, "completion_ns")
		b.ReportMetric(float64(fc.Result.Insert.CompletionCells), "completionCells")
	}
}

// BenchmarkFaultCampaignSmoke runs the DLX fault-injection campaign
// (§4.6-style robustness check) and fails outright if any under-margin
// delay fault or control stuck-at fault escapes: detection of those two
// classes is the flow's safety argument, not a statistic to trend.
func BenchmarkFaultCampaignSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := expt.RunFlow("dlx", expt.FlowConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := expt.RunFaultCampaign(context.Background(), f, expt.FaultCampaignConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for _, class := range []faults.Class{faults.ClassDelay, faults.ClassStuckAt} {
			det, inj := rep.Detected(class)
			if inj == 0 {
				b.Fatalf("campaign injected no %s faults", class)
			}
			if det != inj {
				b.Fatalf("%s detection %d/%d; escaped:\n%s", class, det, inj, rep.Render())
			}
		}
		det, inj := rep.Detected(faults.ClassDelay)
		b.ReportMetric(float64(inj), "delayFaults")
		sdet, sinj := rep.Detected(faults.ClassStuckAt)
		b.ReportMetric(float64(sinj), "stuckFaults")
		b.ReportMetric(float64(det+sdet)/float64(inj+sinj), "detectionRate")
	}
}

// BenchmarkCampaignParallelDLX runs the same campaign with the parallel
// fault fan-out at GOMAXPROCS 4. The detection guard is identical to the
// smoke benchmark — parallelism must not change which faults are caught.
// On a single-core host the runtime measures scheduling overhead, not
// speedup.
func BenchmarkCampaignParallelDLX(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for i := 0; i < b.N; i++ {
		f, err := expt.RunFlow("dlx", expt.FlowConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := expt.RunFaultCampaign(context.Background(), f, expt.FaultCampaignConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for _, class := range []faults.Class{faults.ClassDelay, faults.ClassStuckAt} {
			det, inj := rep.Detected(class)
			if inj == 0 {
				b.Fatalf("campaign injected no %s faults", class)
			}
			if det != inj {
				b.Fatalf("%s detection %d/%d under GOMAXPROCS 4; escaped:\n%s", class, det, inj, rep.Render())
			}
		}
		b.ReportMetric(float64(len(rep.Outcomes)), "faults")
	}
}

// BenchmarkCampaignScalingDLX measures the campaign kernel alone (flow and
// fault list built outside the timer) across GOMAXPROCS values; it is the
// source of the EXPERIMENTS.md scaling table. The numbers are only a
// speedup curve on a multi-core host — on a single core the sub-benchmarks
// should coincide, which is itself a useful overhead bound.
func BenchmarkCampaignScalingDLX(b *testing.B) {
	f, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, j := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(j)
		b.Run(jobsName(j), func(b *testing.B) {
			c, err := expt.NewCampaign(context.Background(), f, 0)
			if err != nil {
				b.Fatal(err)
			}
			list := c.DelayFaults(40, 2)
			list = append(list, c.ControlStuckFaults()...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := c.Run(context.Background(), list)
				if err != nil {
					b.Fatal(err)
				}
				if det, inj := rep.Detected(""); det != inj {
					b.Fatalf("detection %d/%d at %d workers", det, inj, j)
				}
			}
		})
	}
}

func jobsName(j int) string {
	return "j" + string(rune('0'+j))
}

// BenchmarkLintClean runs the static verifier over the DLX golden flow and
// fails outright on any finding, pre- or post-desynchronization: like the
// fault-campaign smoke guard, a lint-dirty tree is a broken build, not a
// statistic. The runtime is the cost of the full lint pass.
func BenchmarkLintClean(b *testing.B) {
	f, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre := lint.Check(f.Sync.Top, lint.Options{})
		post := lint.Check(f.Design.Top, lint.Options{Desync: true, Constraints: f.Result.Constraints})
		if n := pre.Count(lint.Warning) + post.Count(lint.Warning); n != 0 {
			b.Fatalf("golden flow is not lint-clean: %d finding(s)\n%s%s", n, pre.Text(), post.Text())
		}
		b.ReportMetric(float64(len(f.Design.Top.Insts)), "instances")
	}
}

// BenchmarkMGAStaticDLX runs the static marked-graph engine over the DLX
// golden flow and guards its verdicts: the graph must be live and safe,
// and the static period bound must stay within 10% above the calibrated
// 6.5085 ns (a drift in either direction means the pricing model or the
// extraction changed). The per-op runtime is the cost of one full static
// analysis over a prebuilt extraction — the number the static-vs-BFS
// speedup in EXPERIMENTS.md is computed from.
func BenchmarkMGAStaticDLX(b *testing.B) {
	f, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cn := ctrlnet.Derive(f.Design.Top)
	m, err := equiv.FromNetwork(f.Design.Top, cn)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := mga.AnalyzeModel(f.Design.Top, cn, m, mga.Options{})
		if !rep.Live || !rep.Safe {
			b.Fatalf("DLX golden flow fails static verification: live=%v safe=%v", rep.Live, rep.Safe)
		}
		if rep.PeriodNs < 6.50 || rep.PeriodNs > 6.51*1.10 {
			b.Fatalf("static period bound drifted: %.4f ns", rep.PeriodNs)
		}
		b.ReportMetric(rep.PeriodNs, "period-ns")
	}
}

// BenchmarkMGAStaticFlat runs the static marked-graph engine over the
// paper's main path at 256 regions: a flat pipeline netlist read from
// Verilog and grouped automatically, one region per flip-flop, where the
// cycle-ratio pass dominates the analysis. It guards the verdicts (live,
// safe, 256 regions) and reports the period bound; the per-op runtime and
// allocation are one full static analysis over a prebuilt extraction.
func BenchmarkMGAStaticFlat(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	d, err := designs.ParseSpec("pipeline:depth=4,width=64,kind=mix,fanout=balanced,seed=1", lib)
	if err != nil {
		b.Fatal(err)
	}
	if d, err = verilog.Read(verilog.Write(d), lib, ""); err != nil {
		b.Fatal(err)
	}
	res, err := core.Convert(context.Background(), d, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := equiv.FromNetwork(d.Top, res.Network)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := mga.AnalyzeModel(d.Top, res.Network, m, mga.Options{})
		if !rep.Live || !rep.Safe || rep.Regions != 256 {
			b.Fatalf("flat pipeline fails static verification: live=%v safe=%v regions=%d", rep.Live, rep.Safe, rep.Regions)
		}
		b.ReportMetric(rep.PeriodNs, "period-ns")
	}
}

// BenchmarkAblationGrouping measures what the logic-cleaning and bus
// heuristics contribute to automatic region creation on the DLX.
func BenchmarkAblationGrouping(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	for i := 0; i < b.N; i++ {
		full, err := designs.BuildDLX(lib, designs.TestProgram())
		if err != nil {
			b.Fatal(err)
		}
		core.CleanLogic(full.Top)
		gFull := core.AutoGroup(full.Top)

		noBus, err := designs.BuildDLX(lib, designs.TestProgram())
		if err != nil {
			b.Fatal(err)
		}
		core.CleanLogic(noBus.Top)
		gNoBus := core.AutoGroupOpt(noBus.Top, core.GroupOptions{DisableBusRule: true})

		noClean, err := designs.BuildDLX(lib, designs.TestProgram())
		if err != nil {
			b.Fatal(err)
		}
		gNoClean := core.AutoGroup(noClean.Top)

		b.ReportMetric(float64(gFull.Groups), "groups")
		b.ReportMetric(float64(gNoBus.Groups), "groupsNoBusRule")
		b.ReportMetric(float64(gNoClean.Groups), "groupsNoCleaning")
	}
}

// BenchmarkSSTAMatching runs the §6 future-work verification: statistical
// coverage of the matched delay elements across the operating spectrum.
func BenchmarkSSTAMatching(b *testing.B) {
	f, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := expt.SSTAMatching(f)
		if err != nil {
			b.Fatal(err)
		}
		worst := 1.0
		for _, r := range rows {
			if r.CoverShared < worst {
				worst = r.CoverShared
			}
		}
		b.ReportMetric(worst*100, "onDieCoverage%")
	}
}

// BenchmarkFIRDesynchronize runs the third case study's transformation (§6
// "more study case circuits"): the FIR filter with open handshake
// boundaries.
func BenchmarkFIRDesynchronize(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	for i := 0; i < b.N; i++ {
		d, err := designs.BuildFIR(lib)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Convert(context.Background(), d, core.Options{Period: 8})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Insert.EnvRequests) != 1 || len(res.Insert.EnvAcks) != 1 {
			b.Fatal("environment boundary ports missing")
		}
		b.ReportMetric(float64(len(res.DDG.Nodes)), "regions")
	}
}

// ---- Engine micro-benchmarks ----

// BenchmarkDesynchronizeDLX measures the transformation itself (§3.2).
func BenchmarkDesynchronizeDLX(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	for i := 0; i < b.N; i++ {
		d, err := designs.BuildDLX(lib2(i, lib), designs.TestProgram())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Convert(context.Background(), d, core.Options{Period: 4.65}); err != nil {
			b.Fatal(err)
		}
	}
}

func lib2(i int, base *netlist.Library) *netlist.Library {
	_ = i
	return base
}

// BenchmarkSimulateDLX measures gate-level simulation throughput.
func BenchmarkSimulateDLX(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	d, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		b.Fatal(err)
	}
	period := 5.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(d.Top, sim.Config{Corner: netlist.Worst})
		if err != nil {
			b.Fatal(err)
		}
		s.Drive("rstn", logic.L, 0)
		s.Drive("rstn", logic.H, period*0.4)
		s.Clock("clk", period, 0, period*30)
		if err := s.RunUntilQuiescent(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.Events()), "events")
	}
}

// BenchmarkSTADLX measures the timing engine on the DLX.
func BenchmarkSTADLX(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	d, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := sta.Build(d.Top, sta.Options{Corner: netlist.Worst})
		if err != nil {
			b.Fatal(err)
		}
		r := g.Analyze()
		b.ReportMetric(r.WorstEndpointArrival(), "criticalPath_ns")
	}
}

// BenchmarkFaultSimulation measures the DFT random-pattern fault simulator.
func BenchmarkFaultSimulation(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	d, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dft.InsertScan(d); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := dft.GenerateVectors(d, 64, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Coverage()*100, "coverage%")
	}
}

// BenchmarkPlaceAndRoute measures the backend substrate.
func BenchmarkPlaceAndRoute(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := designs.BuildDLX(lib, designs.TestProgram())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		lay, err := pnr.PlaceAndRoute(d, pnr.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lay.Report.CoreArea, "coreArea_um2")
	}
}

// BenchmarkMonteCarloChip measures one variability sample end to end.
func BenchmarkMonteCarloChip(b *testing.B) {
	f, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		variability.ApplyIntraDie(f.Design.Top, 0.03, rng)
		chip := variability.Sample(rng, 1, 1.0/6)[0]
		run, err := expt.MeasureDDLX(f, netlist.Best, chip.Scale(), -1, 12)
		if err != nil {
			b.Fatal(err)
		}
		if !run.Correct {
			b.Fatal("chip failed")
		}
	}
	b.StopTimer()
	variability.ResetIntraDie(f.Design.Top)
}

// BenchmarkProtocolRingCheck measures the STG flow-equivalence checker.
func BenchmarkProtocolRingCheck(b *testing.B) {
	p, err := stg.ProtocolByName("semi-decoupled")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := p.CheckRing(2, 2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Live || !rep.FlowEquiv {
			b.Fatal("semi-decoupled misclassified")
		}
	}
}

// BenchmarkSweepSmokeDLX runs a small corner x chip x fault robustness
// sweep end to end and fails outright if the surface is not flat: every
// corner must detect 100% of its injected faults and no scenario may be
// quarantined. This is the guard for the streaming sweep engine — the
// ordered fold, the quarantine boundary and the aggregation all sit on
// this path — sized to stay a smoke test, not a measurement.
func BenchmarkSweepSmokeDLX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := expt.RunFlow("dlx", expt.FlowConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := expt.RobustnessSurface(context.Background(), f, expt.SurfaceConfig{
			Corners: 2, Chips: 2, DelayPerRegion: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.FailureCount != 0 {
			b.Fatalf("sweep quarantined %d scenario(s):\n%s", rep.FailureCount, rep.Render())
		}
		for _, cs := range rep.CornerStats {
			if cs.Injected == 0 {
				b.Fatalf("corner %d injected no faults", cs.Corner)
			}
			if cs.Detected != cs.Injected {
				b.Fatalf("corner %d detection %d/%d; surface not flat:\n%s",
					cs.Corner, cs.Detected, cs.Injected, rep.Render())
			}
		}
		b.ReportMetric(float64(rep.Total), "scenarios")
		b.ReportMetric(float64(rep.Detected)/float64(rep.Injected), "detectionRate")
	}
}
