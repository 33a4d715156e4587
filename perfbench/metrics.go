package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric the benchmark reports; BENCHMARK.json at the
// repository root lists the same names, units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, defined on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_s_p50", "s", "lower"},
	{"cpu_s_per_job", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"lint.pre_s", "s", "lower"},
	{"lint.stage_s", "s", "lower"},
	{"lint.stage_calls", "count", "lower"},
	{"lint.post_s", "s", "lower"},
	{"lint.alloc_mb", "MB", "lower"},
	{"core.import_s", "s", "lower"},
	{"core.clean_s", "s", "lower"},
	{"core.group_s", "s", "lower"},
	{"core.substitute_s", "s", "lower"},
	{"core.size_s", "s", "lower"},
	{"core.generate_s", "s", "lower"},
	{"core.export_s", "s", "lower"},
	{"core.alloc_mb", "MB", "lower"},
	{"core.regions", "count", "higher"},
	{"core.cells_out", "count", "lower"},
	{"twophase.substitute_s", "s", "lower"},
	{"twophase.size_s", "s", "lower"},
	{"twophase.generate_s", "s", "lower"},
	{"twophase.export_s", "s", "lower"},
	{"sta.region_delays_s", "s", "lower"},
	{"sta.period_s", "s", "lower"},
	{"mga.analyze_s", "s", "lower"},
	{"mga.alloc_mb", "MB", "lower"},
	{"ctrlnet.derive_s", "s", "lower"},
	{"equiv.explore_s", "s", "lower"},
	{"equiv.markings", "count", "lower"},
	{"verilog.read_s", "s", "lower"},
	{"verilog.write_s", "s", "lower"},
	{"verilog.alloc_mb", "MB", "lower"},
	{"designs.build_s", "s", "lower"},
	{"netlist.hash_s", "s", "lower"},
	{"flowserv.submit_s", "s", "lower"},
	{"flowserv.queue_s", "s", "lower"},
	{"flowserv.run_s", "s", "lower"},
	{"flowserv.fetch_s", "s", "lower"},
	{"flowserv.hits", "count", "higher"},
	{"flowserv.misses", "count", "lower"},
	{"flowserv.failed", "count", "lower"},
	{"flowserv.rejected", "count", "lower"},
	{"flowserv.retained_mb_per_job", "MB", "lower"},
	{"flowserv.hit_s_p50", "s", "lower"},
	{"flowserv.hit_s_p90", "s", "lower"},
	{"flowserv.fresh_s_p50", "s", "lower"},
	{"flowserv.eco_s_p50", "s", "lower"},
	{"flowserv.alloc_mb_per_job", "MB", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.residual_pct", "%", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run measured and checked.
type result struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	// info holds metrics printed in the table but not in the JSON line.
	info  map[string]metric
	notes []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, info: map[string]metric{}}
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) addInfo(name string, v float64, unit string) {
	r.info[name] = metric{Value: v, Unit: unit}
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the human-readable table, then the JSON line with exactly
// the metrics of defs; a metric the run did not produce reports 0.
func (r *result) write(w io.Writer, workload string, defs []metricDef) error {
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed\n", workload, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	out := map[string]metric{}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		out[d.name] = m
	}
	rows := map[string]metric{}
	for k, v := range out {
		rows[k] = v
	}
	for k, v := range r.info {
		rows[k] = v
	}
	names := make([]string, 0, len(rows))
	for k := range rows {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		note := ""
		if _, inJSON := out[k]; !inJSON {
			note = "  (table only)"
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s%s\n", k, rows[k].Value, rows[k].Unit, note)
	}
	var unknown []string
	for k := range r.metrics {
		if _, ok := out[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("metrics %s are not declared", strings.Join(unknown, ", "))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// accJob is one traced replica job and its untraced twin's wall time.
type accJob struct {
	job   int
	input string
	plain float64
	out   replicaOut
}

// layerAcc turns the traced replica jobs of a run into per-layer metrics:
// each metric's per-input median over jobs, then the geometric mean over
// inputs, like job_s_p50.
type layerAcc struct {
	t    *tracer
	jobs []accJob
}

func newLayerAcc(t *tracer) *layerAcc { return &layerAcc{t: t} }

// runPair runs the replica of one input untraced and traced, in the given
// order so neither side always runs on the other's warm caches, and holds
// both outputs against the tool's bytes in want.
func (a *layerAcc) runPair(ctx context.Context, in replicaInput, want map[string][]byte, tracedFirst bool) error {
	var plain float64
	var traced replicaOut
	for _, tr := range []bool{tracedFirst, !tracedFirst} {
		var out replicaOut
		var err error
		if tr {
			out, err = runReplica(ctx, a.t, in)
			traced = out
		} else {
			start := time.Now()
			out, err = runReplica(ctx, nil, in)
			plain = time.Since(start).Seconds()
		}
		if err == nil {
			err = sameBytes(in.name, want, out)
		}
		if err != nil {
			return fmt.Errorf("replica (traced=%v): %w", tr, err)
		}
	}
	a.jobs = append(a.jobs, accJob{job: a.t.job, input: in.name, plain: plain, out: traced})
	return nil
}

func (a *layerAcc) report(res *result) {
	per := a.t.jobMetrics()
	groups := map[string]map[string][]float64{}
	add := func(metric, input string, v float64) {
		if groups[metric] == nil {
			groups[metric] = map[string][]float64{}
		}
		groups[metric][input] = append(groups[metric][input], v)
	}
	for _, j := range a.jobs {
		for metric, v := range per[j.job] {
			add(metric, j.input, v)
		}
		add("core.regions", j.input, float64(j.out.regions))
		add("core.cells_out", j.input, float64(j.out.cellsOut))
		add("equiv.markings", j.input, float64(j.out.markings))
		wall, residual := a.t.jobWall(j.job)
		add("trace.traced_wall", j.input, wall)
		add("trace.plain_wall", j.input, j.plain)
		add("trace.residual_pct", j.input, 100*residual/wall)
	}
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	for metric, g := range groups {
		if u, ok := units[metric]; ok {
			res.add(metric, medianOfGroups(g), u)
		}
	}
	traced := medianOfGroups(groups["trace.traced_wall"])
	plain := medianOfGroups(groups["trace.plain_wall"])
	res.add("trace.overhead_pct", 100*(traced/plain-1), "%")
	res.notef("replica: %d traced jobs over %d inputs; job wall %.4f s traced, %.4f s untraced",
		len(a.jobs), len(groups["trace.plain_wall"]), traced, plain)
}
