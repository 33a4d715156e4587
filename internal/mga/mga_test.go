package mga

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"desync/internal/lint"
)

// ring builds the minimal healthy two-transition graph: a forward place
// carrying the schedule token and a return place closing the cycle.
func ring(fwdTok, backTok int, fwdD, backD float64) *Graph {
	g := &Graph{Design: "ring"}
	a := g.AddTransition("A", TransMaster, 1)
	b := g.AddTransition("B", TransSlave, 1)
	g.AddPlace(Place{Src: a, Dst: b, Tokens: fwdTok, Delay: fwdD, Name: "fwd", Channel: "A>B"})
	g.AddPlace(Place{Src: b, Dst: a, Tokens: backTok, Delay: backD, Name: "back"})
	return g
}

// selfLoop is a single transition with a token-free place to itself.
func selfLoop() *Graph {
	g := &Graph{Design: "selfloop"}
	a := g.AddTransition("A", TransMaster, 1)
	g.AddPlace(Place{Src: a, Dst: a, Tokens: 0, Delay: 1, Name: "self"})
	return g
}

// unbounded has a forward place with no return path, its producer kept
// firing by a self-loop.
func unbounded() *Graph {
	g := &Graph{Design: "unbounded"}
	a := g.AddTransition("A", TransMaster, 1)
	b := g.AddTransition("B", TransSlave, 1)
	g.AddPlace(Place{Src: a, Dst: b, Tokens: 1, Delay: 2, Name: "fwd", Channel: "A>B"})
	g.AddPlace(Place{Src: a, Dst: a, Tokens: 1, Delay: 1, Name: "spin"}) // keeps A firing
	return g
}

// twoRings has two cycles through A: 10 ns on one token, 8 ns on two.
func twoRings() *Graph {
	g := &Graph{Design: "tworings"}
	a := g.AddTransition("A", TransMaster, 1)
	b := g.AddTransition("B", TransSlave, 1)
	c := g.AddTransition("C", TransSlave, 2)
	g.AddPlace(Place{Src: a, Dst: b, Tokens: 1, Delay: 10, Name: "slow", Channel: "A>B"})
	g.AddPlace(Place{Src: b, Dst: a, Tokens: 0, Delay: 0, Name: "slowback"})
	g.AddPlace(Place{Src: a, Dst: c, Tokens: 1, Delay: 4, Name: "fast", Channel: "A>C"})
	g.AddPlace(Place{Src: c, Dst: a, Tokens: 1, Delay: 4, Name: "fastback"})
	return g
}

// twoSCCs is two disconnected rings, one healthy and one token-free.
func twoSCCs() *Graph {
	g := &Graph{Design: "twosccs"}
	a := g.AddTransition("A", TransMaster, 1)
	b := g.AddTransition("B", TransSlave, 1)
	c := g.AddTransition("C", TransMaster, 2)
	d := g.AddTransition("D", TransSlave, 2)
	g.AddPlace(Place{Src: a, Dst: b, Tokens: 1, Delay: 1, Name: "ok-fwd"})
	g.AddPlace(Place{Src: b, Dst: a, Tokens: 0, Delay: 1, Name: "ok-back"})
	g.AddPlace(Place{Src: c, Dst: d, Tokens: 0, Delay: 1, Name: "bad-fwd"})
	g.AddPlace(Place{Src: d, Dst: c, Tokens: 0, Delay: 1, Name: "bad-back"})
	return g
}

// boundsGraph has places of bound 1, 2 and unbounded: A⇄B carries one
// token (bound 1), C⇄D two (bound 2), and B→E feeds a spinning E⇄F ring
// with no path back to B (unbounded). A zero-token detour A→C→B adds a
// 0-weight path a bound search must expand in place.
func boundsGraph() *Graph {
	g := &Graph{Design: "bounds"}
	a := g.AddTransition("A", TransMaster, 1)
	b := g.AddTransition("B", TransSlave, 1)
	c := g.AddTransition("C", TransMaster, 2)
	d := g.AddTransition("D", TransSlave, 2)
	e := g.AddTransition("E", TransMaster, 3)
	f := g.AddTransition("F", TransSlave, 3)
	g.AddPlace(Place{Src: a, Dst: b, Tokens: 1, Name: "ab"})
	g.AddPlace(Place{Src: b, Dst: a, Tokens: 0, Name: "ba"})
	g.AddPlace(Place{Src: c, Dst: d, Tokens: 1, Name: "cd"})
	g.AddPlace(Place{Src: d, Dst: c, Tokens: 1, Name: "dc"})
	g.AddPlace(Place{Src: a, Dst: c, Tokens: 0, Name: "ac"})
	g.AddPlace(Place{Src: c, Dst: b, Tokens: 0, Name: "cb"})
	g.AddPlace(Place{Src: b, Dst: e, Tokens: 1, Name: "be"})
	g.AddPlace(Place{Src: e, Dst: f, Tokens: 1, Name: "ef"})
	g.AddPlace(Place{Src: f, Dst: e, Tokens: 0, Name: "fe"})
	return g
}

// handBuilt names every hand-built graph the tests of this file analyze.
func handBuilt() map[string]func() *Graph {
	return map[string]func() *Graph{
		"ring":          func() *Graph { return ring(1, 0, 2, 3) },
		"ring-tokfree":  func() *Graph { return ring(0, 0, 2, 3) },
		"ring-overflow": func() *Graph { return ring(1, 1, 2, 2) },
		"ring-unit":     func() *Graph { return ring(0, 0, 1, 1) },
		"selfloop":      selfLoop,
		"unbounded":     unbounded,
		"tworings":      twoRings,
		"twosccs":       twoSCCs,
		"bounds":        boundsGraph,
	}
}

func findingWith(fs []lint.Finding, rule, substr string) bool {
	for _, f := range fs {
		if f.Rule == rule && strings.Contains(f.Msg, substr) {
			return true
		}
	}
	return false
}

func TestLiveRingPeriod(t *testing.T) {
	r := ring(1, 0, 2, 3).Analyze()
	if !r.Live || !r.Safe {
		t.Fatalf("healthy ring: live=%v safe=%v, want true/true", r.Live, r.Safe)
	}
	if r.MaxBound != 1 {
		t.Fatalf("MaxBound = %d, want 1", r.MaxBound)
	}
	// One token on a 5 ns cycle: the period is the full cycle delay.
	if math.Abs(r.PeriodNs-5) > 1e-12 {
		t.Fatalf("PeriodNs = %v, want 5", r.PeriodNs)
	}
	if len(r.CriticalCycle) != 2 {
		t.Fatalf("critical cycle %v, want both places", r.CriticalCycle)
	}
	if r.Bottleneck != "back" {
		t.Fatalf("bottleneck %q, want the slowest place %q", r.Bottleneck, "back")
	}
}

func TestTokenFreeCycleRejected(t *testing.T) {
	r := ring(0, 0, 2, 3).Analyze()
	if r.Live {
		t.Fatal("token-free cycle accepted as live")
	}
	if !findingWith(r.Findings, RuleLive, "token-free cycle") {
		t.Fatalf("no token-free-cycle finding in %v", r.Findings)
	}
	// Liveness failed: the throughput pass must step aside, not divide by
	// a zero token count.
	if r.PeriodNs != 0 {
		t.Fatalf("PeriodNs = %v on a non-live graph, want 0", r.PeriodNs)
	}
	if !findingWith(r.Findings, RuleCycle, "skipped") {
		t.Fatal("missing the throughput-skipped note")
	}
}

func TestSelfLoopTokenFreeCycle(t *testing.T) {
	// A single-transition self-loop is the smallest cycle: Tarjan's
	// singleton SCCs must still notice the self-edge.
	r := selfLoop().Analyze()
	if r.Live {
		t.Fatal("token-free self-loop accepted as live")
	}
	if !findingWith(r.Findings, RuleLive, "token-free cycle") {
		t.Fatalf("no token-free-cycle finding in %v", r.Findings)
	}
}

func TestUnboundedPlace(t *testing.T) {
	// A forward place with no return path: the producer free-runs and the
	// place accumulates tokens without bound (a severed acknowledge).
	r := unbounded().Analyze()
	if r.Safe {
		t.Fatal("unbounded place accepted as safe")
	}
	if !findingWith(r.Findings, RuleSafe, "unbounded") {
		t.Fatalf("no unbounded finding in %v", r.Findings)
	}
}

func TestOverflowBound(t *testing.T) {
	// Two tokens on a two-place cycle: each place can see both at once,
	// overflowing a single-rail channel.
	r := ring(1, 1, 2, 2).Analyze()
	if !r.Live {
		t.Fatal("double-token ring should still be live")
	}
	if r.Safe {
		t.Fatal("double-token ring accepted as safe")
	}
	if r.MaxBound != 2 {
		t.Fatalf("MaxBound = %d, want 2", r.MaxBound)
	}
	if !findingWith(r.Findings, RuleSafe, "can hold 2 tokens") {
		t.Fatalf("no overflow finding in %v", r.Findings)
	}
	// The cycle ratio divides by both tokens: 4 ns / 2 = 2 ns.
	if math.Abs(r.PeriodNs-2) > 1e-12 {
		t.Fatalf("PeriodNs = %v, want 2", r.PeriodNs)
	}
}

func TestKarpPicksWorstCycle(t *testing.T) {
	// Two cycles through a shared transition: ratio 10/1 beats 8/2. The
	// maximum cycle ratio — not the heaviest total delay — must win.
	r := twoRings().Analyze()
	if !r.Live {
		t.Fatal("graph should be live")
	}
	if math.Abs(r.PeriodNs-10) > 1e-12 {
		t.Fatalf("PeriodNs = %v, want 10", r.PeriodNs)
	}
	if r.Bottleneck != "A>B" {
		t.Fatalf("bottleneck %q, want A>B", r.Bottleneck)
	}
	found := false
	for _, n := range r.CriticalCycle {
		if n == "slow" {
			found = true
		}
	}
	if !found {
		t.Fatalf("critical cycle %v does not include the slow place", r.CriticalCycle)
	}
}

func TestMultipleSCCsEachChecked(t *testing.T) {
	// Two disconnected rings: one healthy, one token-free. The liveness
	// check must inspect every SCC, not stop at the first.
	r := twoSCCs().Analyze()
	if r.Live {
		t.Fatal("graph with one token-free SCC accepted as live")
	}
	if !findingWith(r.Findings, RuleLive, "bad-fwd") && !findingWith(r.Findings, RuleLive, "bad-back") {
		t.Fatalf("token-free finding does not name the broken ring: %v", r.Findings)
	}
}

func TestReportDeterminism(t *testing.T) {
	render := func() (string, string) {
		r := ring(1, 1, 2, 2).Analyze()
		var txt, js bytes.Buffer
		r.WriteText(&txt)
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String()
	}
	t1, j1 := render()
	t2, j2 := render()
	if t1 != t2 {
		t.Fatalf("text report not byte-identical:\n%s\nvs\n%s", t1, t2)
	}
	if j1 != j2 {
		t.Fatalf("JSON report not byte-identical:\n%s\nvs\n%s", j1, j2)
	}
}

func TestStateEstimate(t *testing.T) {
	if got := StateEstimate(4); got != 4096 {
		t.Fatalf("StateEstimate(4) = %d, want 4096 (8^4)", got)
	}
	if got := StateEstimate(40); got != 1<<62 {
		t.Fatalf("StateEstimate(40) = %d, want saturation at 1<<62", got)
	}
	if got := StateEstimate(0); got != 1 {
		t.Fatalf("StateEstimate(0) = %d, want 1", got)
	}
}

func TestLintReportFoldsFindings(t *testing.T) {
	r := ring(0, 0, 1, 1).Analyze()
	extra := []lint.Finding{{Rule: "EQ-MODEL", Severity: lint.Warning, Msg: "stub"}}
	lr := r.LintReport(extra)
	if lr.Errors() == 0 {
		t.Fatal("lint report lost the liveness error")
	}
	if len(lr.ByRule("EQ-MODEL")) != 1 {
		t.Fatal("lint report lost the extra model finding")
	}
}

// TestMinTokenDistReusedBuffer: one scratch buffer reused across every
// bound query (minTokenDist stops at its target and resets only what the
// previous query touched) answers exactly as a fresh buffer per query, on a
// graph whose places have bounds 1, 2 and unbounded, in any query order.
func TestMinTokenDistReusedBuffer(t *testing.T) {
	const inf = int(1) << 30
	g := boundsGraph()
	g.index()

	bound := func(p Place, buf *distBuf) int {
		if d := g.minTokenDist(p.Dst, p.Src, inf, buf); d < inf {
			return p.Tokens + d
		}
		return inf
	}
	want := map[string]int{}
	for _, p := range g.Places {
		want[p.Name] = bound(p, newDistBuf(len(g.Trans), inf))
	}
	seen := map[int]bool{}
	for _, v := range want {
		seen[v] = true
	}
	if !seen[1] || !seen[2] || !seen[inf] {
		t.Fatalf("fixture bounds %v must include 1, 2 and unbounded", want)
	}
	// Forward, reversed and repeated query orders over one shared buffer.
	var order []Place
	for i := range g.Places {
		order = append(order, g.Places[i])
	}
	for i := len(g.Places) - 1; i >= 0; i-- {
		order = append(order, g.Places[i], g.Places[i])
	}
	buf := newDistBuf(len(g.Trans), inf)
	for _, p := range order {
		if got := bound(p, buf); got != want[p.Name] {
			t.Fatalf("place %s: bound %d with a reused buffer, %d with a fresh one", p.Name, got, want[p.Name])
		}
	}
}
