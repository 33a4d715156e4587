package mga

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/equiv"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// sameReport fails unless the two reports agree bit for bit: period,
// critical cycle, bottleneck, per-region table, findings and rendered
// bytes.
func sameReport(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if math.Float64bits(got.PeriodNs) != math.Float64bits(want.PeriodNs) {
		t.Fatalf("%s: period %v (%x), reference %v (%x)", what,
			got.PeriodNs, math.Float64bits(got.PeriodNs), want.PeriodNs, math.Float64bits(want.PeriodNs))
	}
	if !slices.Equal(got.CriticalCycle, want.CriticalCycle) {
		t.Fatalf("%s: critical cycle\n%v\nreference\n%v", what, got.CriticalCycle, want.CriticalCycle)
	}
	if got.Bottleneck != want.Bottleneck {
		t.Fatalf("%s: bottleneck %q, reference %q", what, got.Bottleneck, want.Bottleneck)
	}
	if !slices.EqualFunc(got.PerRegion, want.PerRegion, func(a, b RegionPerf) bool {
		return a.Region == b.Region && a.Channel == b.Channel && math.Float64bits(a.PeriodNs) == math.Float64bits(b.PeriodNs)
	}) {
		t.Fatalf("%s: per-region table\n%v\nreference\n%v", what, got.PerRegion, want.PerRegion)
	}
	if !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Fatalf("%s: findings\n%v\nreference\n%v", what, got.Findings, want.Findings)
	}
	var gt, wt, gj, wj bytes.Buffer
	got.WriteText(&gt)
	want.WriteText(&wt)
	if err := got.WriteJSON(&gj); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&wj); err != nil {
		t.Fatal(err)
	}
	if gt.String() != wt.String() || gj.String() != wj.String() {
		t.Fatalf("%s: rendered report differs from the reference", what)
	}
}

// diffReference analyzes a fresh graph from build with the cycle pass and
// with the dense reference, and requires identical reports.
func diffReference(t *testing.T, what string, build func() *Graph) *Report {
	t.Helper()
	got := build().Analyze()
	sameReport(t, what, got, build().refAnalyze())
	return got
}

// diffModule is diffReference over a desynchronized module's marked graph.
func diffModule(t *testing.T, what string, mod *netlist.Module, cn *ctrlnet.Network) *Report {
	t.Helper()
	m, err := equiv.FromNetwork(mod, cn)
	if err != nil {
		t.Fatal(err)
	}
	return diffReference(t, what, func() *Graph {
		g := BuildGraph(mod, cn, m, Options{})
		g.CheckModel(m)
		return g
	})
}

func TestCyclesMatchReferenceHandBuilt(t *testing.T) {
	for name, build := range handBuilt() {
		diffReference(t, name, build)
	}
}

func TestCyclesMatchReferenceCaseStudies(t *testing.T) {
	for _, name := range []string{"dlx", "arm", "fir", "riscv"} {
		d := converted(t, name)
		if rep := diffModule(t, name, d.Top, ctrlnet.Derive(d.Top)); rep.PeriodNs <= 0 {
			t.Fatalf("%s: no period bound", name)
		}
	}
}

// flatFlow desynchronizes a generated design the way a flat netlist
// arrives: written as Verilog with no hierarchy, read back, and grouped
// automatically — one region per flip-flop for the balanced pipelines.
func flatFlow(t testing.TB, spec string) (*netlist.Module, *ctrlnet.Network) {
	t.Helper()
	lib := stdcells.New(stdcells.HighSpeed)
	d, err := designs.ParseSpec(spec, lib)
	if err != nil {
		t.Fatal(err)
	}
	if d, err = verilog.Read(verilog.Write(d), lib, ""); err != nil {
		t.Fatal(err)
	}
	res, err := core.Convert(context.Background(), d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d.Top, res.Network
}

// TestCyclesMatchReferenceFlat runs the two 256-region uploads of the job
// server's load: 192 of their 256 regions tie at the critical ratio, so
// the critical cycle rests on the tie-break.
func TestCyclesMatchReferenceFlat(t *testing.T) {
	for _, seed := range []int{101, 201} {
		spec := fmt.Sprintf("pipeline:depth=4,width=64,kind=mix,fanout=balanced,seed=%d", seed)
		mod, cn := flatFlow(t, spec)
		if rep := diffModule(t, spec, mod, cn); rep.Regions != 256 {
			t.Fatalf("%s: %d regions, want 256", spec, rep.Regions)
		}
	}
}

// tieGraph builds a seeded random live marked graph made to tie: delays
// from a small set (some inexact in binary, so sums round), a few hub
// transitions that source most places, parallel places between one
// transition pair, and several components, each a ring with one token
// place plus chords and one-way links to later components. Token-free
// places only run forward in a random level order, so the token-free
// subgraph is a DAG and the graph is live.
func tieGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	delays := []float64{0, 0.1, 0.2, 0.3, 1, 2}
	g := &Graph{Design: fmt.Sprintf("tie%d", seed)}
	level := map[int]int{}
	nextPlace := func(src, dst int) {
		tokens := 0
		if level[src] >= level[dst] || rng.Intn(3) == 0 {
			tokens = 1
		}
		p := Place{Src: src, Dst: dst, Tokens: tokens, Delay: delays[rng.Intn(len(delays))], Name: fmt.Sprintf("p%d", len(g.Places))}
		if rng.Intn(2) == 0 {
			p.Channel = fmt.Sprintf("c%d", len(g.Places)%5)
		}
		g.AddPlace(p)
		if rng.Intn(4) == 0 { // a parallel place between the same pair
			p.Delay = delays[rng.Intn(len(delays))]
			p.Name = fmt.Sprintf("p%d", len(g.Places))
			g.AddPlace(p)
		}
	}
	var comps [][]int
	for range 1 + rng.Intn(4) {
		size := 1 + rng.Intn(7)
		comp := make([]int, size)
		for i := range comp {
			comp[i] = g.AddTransition(fmt.Sprintf("T%d", len(g.Trans)), TransKind(rng.Intn(4)), rng.Intn(4)-1)
		}
		for i, l := range rng.Perm(size) {
			level[comp[i]] = l
		}
		comps = append(comps, comp)
	}
	for ci, comp := range comps {
		slices.SortFunc(comp, func(a, b int) int { return level[a] - level[b] })
		for i := range comp { // the ring; its closing place carries a token
			nextPlace(comp[i], comp[(i+1)%len(comp)])
		}
		hubs := comp[:1+rng.Intn(len(comp))]
		for range rng.Intn(3 * len(comp)) {
			nextPlace(hubs[rng.Intn(len(hubs))], comp[rng.Intn(len(comp))])
		}
		for _, later := range comps[ci+1:] {
			if rng.Intn(2) == 0 {
				nextPlace(comp[rng.Intn(len(comp))], later[rng.Intn(len(later))])
			}
		}
	}
	return g
}

func TestCyclesMatchReferenceRandomTies(t *testing.T) {
	live := 0
	for seed := int64(1); seed <= 400; seed++ {
		if diffReference(t, fmt.Sprintf("seed %d", seed), func() *Graph { return tieGraph(seed) }).Live {
			live++
		}
	}
	if live != 400 {
		t.Fatalf("%d of 400 random graphs live, want all", live)
	}
}

// TestAnalyzeAllocsFlat bounds what one static analysis of a 256-region
// flat pipeline allocates. The reference cycle pass, with its dense
// tables, takes the whole analysis to about 31 MB here; Karp over source
// transitions keeps it near 8 MB.
func TestAnalyzeAllocsFlat(t *testing.T) {
	mod, cn := flatFlow(t, "pipeline:depth=4,width=64,kind=mix,fanout=balanced,seed=1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Analyze(mod, cn, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regions != 256 || !rep.Live || !rep.Safe {
		t.Fatalf("flat pipeline: %d regions, live=%v safe=%v; want 256, true, true", rep.Regions, rep.Live, rep.Safe)
	}
	const limit = 12 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("mga.Analyze allocated %.1f MB on 256 regions, want under %d MB", float64(got)/(1<<20), limit>>20)
	}
}
