package main

import (
	"context"
	"errors"
	"fmt"
	"io"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/equiv"
	"desync/internal/lint"
	"desync/internal/mga"
	"desync/internal/netlist"
	"desync/internal/sta"
	_ "desync/internal/twophase" // registers the twophase backend, as drdesync's imports do
	"desync/internal/verilog"
)

// replicaInput is one conversion job for the in-process replica: the same
// design and options a drdesync invocation or a job-server request runs.
type replicaInput struct {
	name string
	// spec is the generator spec; when text is set the job parses text
	// instead and spec only feeds the standalone build probe.
	spec    string
	text    string
	lib     *netlist.Library
	backend string
	period  float64
	// derivePeriod derives the period from STA first, as the job server
	// does for requests without one.
	derivePeriod bool
	manualGroups bool
	equiv        bool
}

// replicaOut is what one replica job produced.
type replicaOut struct {
	netlist, sdc []byte
	regions      int
	cellsOut     int
	markings     int
}

// runReplica runs one job through the layers in drdesync's order:
// pre-import lint, core.Convert with the stage-check lint hook, the
// backend's post-export gates and the Verilog/SDC writers. With a non-nil
// tracer every layer call is a span, the flow's Progress hook splits
// Convert into its stages, and the standalone probes run after the job.
// The output bytes are returned so callers can hold them against the
// tool's own.
func runReplica(ctx context.Context, t *tracer, in replicaInput) (out replicaOut, err error) {
	t.startJob(in.name)
	t.begin("job")
	defer t.closeAll()

	var d *netlist.Design
	if in.text != "" {
		t.do("verilog.Read", func() { d, err = verilog.Read(in.text, in.lib, "") })
	} else {
		t.do("designs.ParseSpec", func() { d, err = designs.ParseSpec(in.spec, in.lib) })
	}
	if err != nil {
		return out, err
	}
	t.do("lint.CheckDesign", func() { err = gate("pre-import", lint.CheckDesign(d, lint.Options{})) })
	if err != nil {
		return out, err
	}
	period := in.period
	if in.derivePeriod {
		t.do("sta.period", func() { period, err = derivePeriod(ctx, d.Top) })
		if err != nil {
			return out, err
		}
	}

	opts := core.Options{
		Backend:      in.backend,
		Period:       period,
		Margin:       1.15,
		ManualGroups: in.manualGroups,
		StageCheck: func(stage string, midFlow bool) (err error) {
			t.do("lint.Check(MidFlow)", func() {
				rep := lint.Check(d.Top, lint.Options{MidFlow: midFlow})
				if n := rep.Errors(); n > 0 {
					err = fmt.Errorf("lint: %d error(s), first: %s", n, rep.Findings[0])
				}
			})
			return err
		},
	}
	stageOpen := false
	if t != nil {
		opts.Progress = func(stage string) {
			if stageOpen {
				t.end()
			}
			if stage == core.StageSize {
				// The kernel Size runs per region, timed standalone on the
				// very design Size is about to see.
				t.probe("sta.RegionDelays", func() {
					_, _ = sta.RegionDelays(ctx, d.Top, netlist.Worst, sta.Options{})
				})
			}
			t.begin(stageSpan(in.backend, stage))
			stageOpen = true
		}
	}
	var res *core.Result
	t.do("core.Convert", func() {
		res, err = core.Convert(ctx, d, opts)
		if stageOpen {
			t.end()
		}
	})
	if err != nil {
		return out, err
	}
	out.regions = res.Grouping.Groups

	switch res.Backend {
	case core.BackendDesync:
		if out.markings, err = desyncGates(ctx, t, d, res, in.equiv); err != nil {
			return out, err
		}
	case core.BackendTwoPhase:
		t.do("lint.Check", func() {
			err = gate("post-export", lint.Check(d.Top, lint.Options{TwoPhase: true, Constraints: res.Constraints}))
		})
		if err != nil {
			return out, err
		}
	default:
		return out, fmt.Errorf("replica: no gates for backend %q", res.Backend)
	}
	t.do("verilog.Write", func() { out.netlist = []byte(verilog.Write(d)) })
	t.do("sdc.Write", func() { out.sdc = []byte(res.Constraints.Write()) })
	out.cellsOut = len(d.Top.Insts)
	t.end()

	if t != nil {
		probeLayers(ctx, t, in, d, res, out)
	}
	return out, nil
}

// desyncGates is drdesync's post-export pipeline for the desync backend:
// the DS-* lint family over the flow's own control-network IR, the static
// marked-graph gate, and the exhaustive equiv gate when requested and
// within the marking budget's reach. It returns the markings explored.
func desyncGates(ctx context.Context, t *tracer, d *netlist.Design, res *core.Result, wantEquiv bool) (markings int, err error) {
	t.do("lint.Check", func() {
		rep := lint.Check(d.Top, lint.Options{Desync: true, Constraints: res.Constraints, Network: res.Network})
		if len(res.UnderMargin) > 0 {
			for i := range rep.Findings {
				if rep.Findings[i].Rule == lint.RuleMargin {
					rep.Findings[i].Severity = lint.Warning
				}
			}
		}
		err = gate("post-export", rep)
	})
	if err != nil {
		return 0, err
	}
	cn := res.Network
	if cn == nil || cn.Module != d.Top {
		cn = ctrlnet.Derive(d.Top)
	}
	var srep *mga.Report
	t.do("mga.Analyze", func() {
		if srep, err = mga.Analyze(d.Top, cn, mga.Options{}); err != nil {
			return
		}
		srep.WriteText(io.Discard)
		err = gate("static", srep.LintReport(srep.ModelFindings))
	})
	if err != nil || !wantEquiv || mga.StateEstimate(srep.Regions) > uint64(equiv.DefaultMaxStates) {
		return 0, err
	}
	var m *equiv.Model
	t.do("equiv.FromNetwork", func() { m, err = equiv.FromNetwork(d.Top, cn) })
	if err != nil {
		return 0, err
	}
	t.do("equiv.Explore", func() {
		var r *equiv.Result
		if r, err = m.Explore(ctx, equiv.ExploreOptions{}); err != nil {
			return
		}
		r.WriteText(io.Discard)
		markings = r.States
		err = gate("equiv", r.Report(m.Findings))
	})
	return markings, err
}

// probeLayers times the standalone calls on the job's input and output:
// parsing the exported netlist, deriving the control network afresh,
// and building, hashing and timing a fresh copy of the input the way the
// job server does at submit time.
func probeLayers(ctx context.Context, t *tracer, in replicaInput, d *netlist.Design, res *core.Result, out replicaOut) {
	t.beginProbe("probes")
	defer t.end()
	t.do("verilog.Read", func() { _, _ = verilog.Read(string(out.netlist), in.lib, "") })
	if res.Backend == core.BackendDesync {
		t.do("ctrlnet.DeriveFresh", func() { ctrlnet.DeriveFresh(d.Top) })
	}
	// A job that parses its input is timed building it from the spec the
	// text was generated from; a generated job already built it in-job.
	build := "probe.build"
	if in.text != "" {
		build = "designs.ParseSpec"
	}
	var fresh *netlist.Design
	var err error
	t.do(build, func() { fresh, err = designs.ParseSpec(in.spec, in.lib) })
	if err != nil {
		return
	}
	t.do("netlist.ContentHash", func() { fresh.ContentHash() })
	if !in.derivePeriod {
		t.do("sta.period", func() { _, _ = derivePeriod(ctx, fresh.Top) })
	}
}

// derivePeriod is the job server's period derivation: the worst
// launch-to-capture budget over all regions at the worst corner, plus 5%.
func derivePeriod(ctx context.Context, m *netlist.Module) (float64, error) {
	rds, err := sta.RegionDelays(ctx, m, netlist.Worst, sta.Options{})
	if err != nil {
		return 0, err
	}
	p := 0.0
	for _, rd := range rds {
		if b := rd.Budget(); b > p {
			p = b
		}
	}
	if p <= 0 {
		return 0, errors.New("no launch-to-capture budgets found")
	}
	return p * 1.05, nil
}

// gate fails on any error finding, formatting the findings the way the
// tool prints them.
func gate(name string, rep *lint.Report) error {
	for _, f := range rep.Findings {
		fmt.Fprintf(io.Discard, "  %s\n", f)
	}
	if n := rep.Errors(); n > 0 {
		return fmt.Errorf("%s lint gate failed with %d error(s)", name, n)
	}
	return nil
}

// stageSpan names a flow stage's span by the layer that owns it: the
// skeleton's stages are core's, the backend's stages belong to a
// non-default backend's own package.
func stageSpan(backend, stage string) string {
	switch stage {
	case core.StageSubstitute, core.StageSize, core.StageGenerate, core.StageExport:
		if backend != "" && backend != core.BackendDesync {
			return backend + "." + stage
		}
	}
	return "core." + stage
}
