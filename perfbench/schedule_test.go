package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"desync/internal/flowserv"
)

func TestScheduleDeterministic(t *testing.T) {
	a, err := newSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built two different schedules")
	}
	c, err := newSchedule(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.clients, c.clients) {
		t.Error("seeds 7 and 8 built identical uploads")
	}
}

func TestScheduleClassCountsFixed(t *testing.T) {
	want := map[string]int{classFresh: 10, classHit: 10, classECO: 2, classKnownFail: 2}
	for seed := int64(0); seed < variants; seed++ {
		s, err := newSchedule(seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.classCounts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: class counts %v, want %v", seed, got, want)
		}
	}
}

// Each hit must repeat a request its own client already ran, and the two
// clients must share no request; otherwise timing, not the schedule, would
// decide which submission is fresh.
func TestScheduleClassesIndependentOfTiming(t *testing.T) {
	s, err := newSchedule(3)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]int{}
	for c, entries := range s.clients {
		seen := map[string]bool{}
		for _, e := range entries {
			body, err := json.Marshal(e.req)
			if err != nil {
				t.Fatal(err)
			}
			if o, ok := owner[string(body)]; ok && o != c {
				t.Errorf("%s: submitted by both clients", e.key)
			}
			owner[string(body)] = c
			switch e.class {
			case classHit:
				if !seen[e.key] {
					t.Errorf("client %d: hit on %s before its fresh run", c, e.key)
				}
			case classFresh, classECO:
				if seen[e.key] {
					t.Errorf("client %d: %s runs fresh twice", c, e.key)
				}
				seen[e.key] = true
			}
		}
	}
}

func TestECOEditSwapsOneCell(t *testing.T) {
	text, err := flatVerilog(flatSpec(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	eco, err := ecoEdit(text, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, b := strings.Split(text, "\n"), strings.Split(eco, "\n")
	if len(a) != len(b) {
		t.Fatalf("eco changed the line count: %d -> %d", len(a), len(b))
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
			if !strings.HasPrefix(b[i], "  XNOR2X1 ") || strings.TrimPrefix(a[i], "  XOR2X1 ") != strings.TrimPrefix(b[i], "  XNOR2X1 ") {
				t.Errorf("unexpected edit %q -> %q", a[i], b[i])
			}
		}
	}
	if diff != 1 {
		t.Errorf("eco changed %d lines, want 1", diff)
	}
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// perfbench prints.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		E2E       []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, perfbench %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", cfg.E2E, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}

// A known-failing submission that succeeds once the defect is fixed must
// have its outputs checked: with none pinned under its key, it fails.
func TestKnownFailSuccessIsDigestChecked(t *testing.T) {
	d, err := loadDigests("..", false)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{root: "..", digests: d}
	s, err := newSchedule(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(s.clients[0], s.clients[1]...) {
		if e.class != classKnownFail {
			continue
		}
		j := &serveJob{entry: e, arts: map[string][]byte{"netlist.v": []byte("module m; endmodule\n")}}
		err := b.checkServeJob(s, j, flowserv.Status{State: flowserv.StateDone}, map[string]map[string][]byte{})
		if err == nil || !strings.Contains(err.Error(), "no pinned digest") {
			t.Errorf("%s: succeeded unchecked: err = %v", e.key, err)
		}
		if j.known {
			t.Errorf("%s: a success counted as the known failure", e.key)
		}
	}
}

// One pass through a real in-process server: every submission ends in its
// scheduled class and the server's counters match the schedule exactly.
func TestServePassMatchesSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full serve schedule")
	}
	d, err := loadDigests("..", false)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{root: "..", digests: d}
	s, err := newSchedule(0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := b.runPass(context.Background(), s, true)
	if err != nil {
		t.Fatal(err)
	}
	counts := s.classCounts()
	known := 0
	for _, j := range pr.jobs {
		if j.err != nil {
			t.Errorf("%s (%s): %v", j.entry.key, j.entry.class, j.err)
		}
		if j.known {
			known++
		}
	}
	if known != counts[classKnownFail] {
		t.Errorf("%d known failures, schedule has %d", known, counts[classKnownFail])
	}
	st := pr.stats
	if int(st.Cache.Hits) != counts[classHit] || int(st.Cache.Misses) != len(pr.jobs)-counts[classHit] {
		t.Errorf("cache hits/misses %d/%d, schedule %d/%d", st.Cache.Hits, st.Cache.Misses, counts[classHit], len(pr.jobs)-counts[classHit])
	}
	if st.Failed != counts[classKnownFail] {
		t.Errorf("server failed %d jobs, schedule has %d known failures", st.Failed, counts[classKnownFail])
	}
	if pr.retainedMB <= 0 {
		t.Errorf("retained heap per job %v MB, want > 0", pr.retainedMB)
	}
}
