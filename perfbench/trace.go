package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans nest: parent indexes the
// enclosing span (-1 for a job's root) and every span of one job shares
// the job id. Probe spans time standalone calls made for measurement only;
// they are not part of the job the tool runs.
type span struct {
	name       string
	job        int
	parent     int
	start, end time.Duration
	alloc      uint64
	probe      bool
}

// tracer records spans in memory; the trace file is written at the end of
// the run. A nil *tracer records nothing, so the untraced replica runs the
// same code with no span bookkeeping.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	allocs []uint64
	job    int
	inputs map[int]string
	sample []metrics.Sample
}

const allocMetric = "/gc/heap/allocs:bytes"

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		inputs: map[int]string{},
		sample: []metrics.Sample{{Name: allocMetric}},
	}
}

// heapAllocs reads the cumulative bytes allocated by this process.
func heapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startJob opens a new job id for the named input; the next span begun
// with no span open becomes its root.
func (t *tracer) startJob(input string) {
	if t == nil {
		return
	}
	t.job++
	t.inputs[t.job] = input
}

func (t *tracer) begin(name string) { t.push(name, false) }

// beginProbe opens a span for a standalone measurement call.
func (t *tracer) beginProbe(name string) { t.push(name, true) }

func (t *tracer) push(name string, probe bool) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		probe = probe || t.spans[parent].probe
	}
	t.spans = append(t.spans, span{name: name, job: t.job, parent: parent, probe: probe, start: time.Since(t.origin)})
	t.open = append(t.open, len(t.spans)-1)
	t.allocs = append(t.allocs, heapAllocs(t.sample))
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.end = time.Since(t.origin)
	s.alloc = heapAllocs(t.sample) - t.allocs[n]
	t.open, t.allocs = t.open[:n], t.allocs[:n]
}

// closeAll ends every open span, for jobs that stop on an error.
func (t *tracer) closeAll() {
	for t != nil && len(t.open) > 0 {
		t.end()
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// probe runs f inside a probe span.
func (t *tracer) probe(name string, f func()) {
	t.beginProbe(name)
	f()
	t.end()
}

// addSpan records a span measured elsewhere (the job server's events).
func (t *tracer) addSpan(s span) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, s)
}

// self returns each span's duration and allocation minus its children's.
func (t *tracer) self() (dur []time.Duration, alloc []int64) {
	dur = make([]time.Duration, len(t.spans))
	alloc = make([]int64, len(t.spans))
	for i, s := range t.spans {
		dur[i] += s.end - s.start
		alloc[i] += int64(s.alloc)
		if s.parent >= 0 {
			dur[s.parent] -= s.end - s.start
			alloc[s.parent] -= int64(s.alloc)
		}
	}
	return dur, alloc
}

// spanMetric maps a span name to the per-layer metric its self time feeds.
var spanMetric = map[string]string{
	"designs.ParseSpec":   "designs.build_s",
	"verilog.Read":        "verilog.read_s",
	"verilog.Write":       "verilog.write_s",
	"lint.CheckDesign":    "lint.pre_s",
	"lint.Check(MidFlow)": "lint.stage_s",
	"lint.Check":          "lint.post_s",
	"sta.RegionDelays":    "sta.region_delays_s",
	"sta.period":          "sta.period_s",
	"mga.Analyze":         "mga.analyze_s",
	"equiv.FromNetwork":   "equiv.explore_s",
	"equiv.Explore":       "equiv.explore_s",
	"ctrlnet.DeriveFresh": "ctrlnet.derive_s",
	"netlist.ContentHash": "netlist.hash_s",
}

// layerOf is the module a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexAny(name, ".("); i > 0 {
		return name[:i]
	}
	return name
}

// jobMetrics sums each job's span self times and allocations into the
// per-layer metrics. Stage spans are named core.<stage> or
// twophase.<stage>; allocation metrics sum the self allocations of every
// span of their layer.
func (t *tracer) jobMetrics() map[int]map[string]float64 {
	dur, alloc := t.self()
	out := map[int]map[string]float64{}
	for i, s := range t.spans {
		m := out[s.job]
		if m == nil {
			m = map[string]float64{}
			out[s.job] = m
		}
		name := spanMetric[s.name]
		if name == "" && (strings.HasPrefix(s.name, "core.") || strings.HasPrefix(s.name, "twophase.")) && s.name != "core.Convert" {
			name = s.name + "_s"
		}
		if name != "" {
			m[name] += dur[i].Seconds()
		}
		if s.name == "lint.Check(MidFlow)" {
			m["lint.stage_calls"]++
		}
		switch layer := layerOf(s.name); layer {
		case "lint", "mga", "verilog":
			m[layer+".alloc_mb"] += float64(alloc[i]) / (1 << 20)
		case "core", "twophase":
			m["core.alloc_mb"] += float64(alloc[i]) / (1 << 20)
		}
	}
	return out
}

// jobWall returns a job's wall time without its probes, and the share of
// it no layer span covers (the root's own self time).
func (t *tracer) jobWall(job int) (wall, residual float64) {
	dur, _ := t.self()
	for i, s := range t.spans {
		if s.job != job || s.probe {
			continue
		}
		if s.parent < 0 {
			wall += (s.end - s.start).Seconds()
			residual += dur[i].Seconds()
		}
	}
	// Probe spans nested inside the job (the Size-entry STA probe) are
	// subtracted from the root's wall; they are not the tool's work.
	for _, s := range t.spans {
		if s.job == job && s.probe && s.parent >= 0 && !t.spans[s.parent].probe {
			wall -= (s.end - s.start).Seconds()
		}
	}
	return wall, residual
}

// writeChrome writes the spans as Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load): one complete event per span with
// its parent, job id and input in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		evs = append(evs, event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.job,
			Args: map[string]any{
				"job": s.job, "input": t.inputs[s.job], "parent": parent,
				"alloc_mb": float64(s.alloc) / (1 << 20), "probe": s.probe,
			},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// writeTable prints the per-layer table: for each span name, the calls,
// self time and self allocation summed over the run.
func (t *tracer) writeTable(w io.Writer) {
	dur, alloc := t.self()
	type row struct {
		calls int
		self  time.Duration
		alloc int64
	}
	rows := map[string]*row{}
	var total time.Duration
	for i, s := range t.spans {
		name := s.name
		if s.probe {
			name += " [probe]"
		}
		r := rows[name]
		if r == nil {
			r = &row{}
			rows[name] = r
		}
		r.calls++
		r.self += dur[i]
		r.alloc += alloc[i]
		total += dur[i]
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %7s %11s %7s %11s\n", "span", "calls", "self_s", "share", "alloc_mb")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "%-34s %7d %11.4f %6.1f%% %11.2f\n", n, r.calls, r.self.Seconds(),
			100*r.self.Seconds()/total.Seconds(), float64(r.alloc)/(1<<20))
	}
}
