package mga

import (
	"fmt"
	"sort"
	"strings"

	"desync/internal/equiv"
	"desync/internal/lint"
)

// Analyze runs every static check over the graph and returns the report:
// dead-input and token-free-cycle liveness (MG-LIVE), place bounds, reset
// phases and the request-vs-data cross-check (MG-SAFE), and — when the
// graph is live — the maximum cycle ratio with its critical cycle
// (MG-CYCLE) and per-region bottlenecks (MG-PERF).
func (g *Graph) Analyze() *Report {
	g.index()
	r := &Report{
		Design:      g.Design,
		Regions:     len(g.masterOf),
		Transitions: len(g.Trans),
		PlaceCount:  len(g.Places),
		Live:        true,
		Safe:        true,
	}
	// Build-time findings: the reset-phase audit lands here; CheckModel's
	// dead-input findings are folded in by checkDeadInputs below.
	for _, f := range g.findings {
		if f.Rule == RuleLive {
			continue
		}
		r.Findings = append(r.Findings, f)
		if f.Severity == lint.Error {
			r.Safe = false
		}
	}

	g.checkDeadInputs(r)
	g.checkTokenFreeCycles(r)
	g.checkBounds(r)
	g.checkDDG(r)
	if r.Live {
		g.analyzeCycles(r)
	} else {
		r.Findings = append(r.Findings, lint.Finding{
			Rule: RuleCycle, Severity: lint.Info, Module: g.Design,
			Msg: "throughput analysis skipped: the marked graph is not live",
		})
	}
	sortFindings(r.Findings)
	return r
}

// deadSignals returns the model signal names whose handshake inputs are
// stuck, keyed by the (region, master) controller half they starve.
type deadSource struct {
	region int
	master bool
	signal string
	input  string
}

// CheckModel records dead-input faults found in the extracted model: a
// controller gate (or a join or delay chain feeding one) with a stuck
// operand can never complete a handshake phase, so its transition is dead
// in every marking — no state search needed. Call before Analyze on
// graphs built by BuildGraph; hand-built graphs have no model.
func (g *Graph) CheckModel(m *equiv.Model) {
	sigs := g.sigs
	if sigs == nil {
		sigs = m.StaticSignals()
	}
	var dead []deadSource
	for _, s := range sigs {
		if s.Kind == equiv.SigEnvSrc || s.Kind == equiv.SigEnvSink {
			continue // an env channel watches a gate; gate faults are reported there
		}
		for _, op := range s.Inputs {
			if op.Sig >= 0 {
				continue
			}
			dead = append(dead, deadSource{
				region: s.Region, master: s.Master, signal: s.Name,
				input: fmt.Sprintf("stuck %s", stuckName(op.Stuck)),
			})
		}
	}
	for _, d := range dead {
		side := "slave"
		if d.master {
			side = "master"
		}
		g.findings = append(g.findings, lint.Finding{
			Rule: RuleLive, Severity: lint.Error, Module: g.Design, Net: d.signal,
			Msg: fmt.Sprintf("region %d %s handshake input %s is %s: its transition can never complete a cycle (dead without state search)",
				d.region, side, d.signal, d.input),
		})
	}
}

func stuckName(v bool) string {
	if v {
		return "high"
	}
	return "low"
}

// checkDeadInputs folds CheckModel's findings (already in g.findings)
// into the liveness verdict and reports the starved downstream cone: in
// a connected marked graph a transition that never fires starves every
// transition downstream of it, so one dead input condemns the component.
func (g *Graph) checkDeadInputs(r *Report) {
	dead := 0
	for _, f := range g.findings {
		if f.Rule == RuleLive && f.Severity == lint.Error {
			r.Live = false
			r.Findings = append(r.Findings, f)
			dead++
		}
	}
	if dead == 0 {
		return
	}
	r.Findings = append(r.Findings, lint.Finding{
		Rule: RuleLive, Severity: lint.Info, Module: g.Design,
		Msg: fmt.Sprintf("%d dead handshake input(s) starve the connected control network (%d transitions)", dead, len(g.Trans)),
	})
}

// checkTokenFreeCycles rejects any directed cycle whose places carry no
// tokens: such a cycle can never fire any of its transitions. Tarjan SCC
// over the token-free subgraph finds one without enumerating cycles.
func (g *Graph) checkTokenFreeCycles(r *Report) {
	// Token-free adjacency, as places and as destination transitions.
	adj := make([][]int, len(g.Trans))
	succ := make([][]int, len(g.Trans))
	for _, p := range g.Places {
		if p.Tokens == 0 {
			adj[p.Src] = append(adj[p.Src], p.ID)
			succ[p.Src] = append(succ[p.Src], p.Dst)
		}
	}
	sccs := tarjan(len(g.Trans), succ)
	inSCC := make([]bool, len(g.Trans))
	for _, scc := range sccs {
		for i := range inSCC {
			inSCC[i] = false
		}
		for _, v := range scc {
			inSCC[v] = true
		}
		cyclic := len(scc) > 1
		if !cyclic {
			for _, pid := range adj[scc[0]] {
				if g.Places[pid].Dst == scc[0] {
					cyclic = true
				}
			}
		}
		if !cyclic {
			continue
		}
		r.Live = false
		names := g.cycleIn(scc[0], inSCC, adj)
		r.Findings = append(r.Findings, lint.Finding{
			Rule: RuleLive, Severity: lint.Error, Module: g.Design,
			Msg: fmt.Sprintf("token-free cycle: %s can never fire (no token ever arrives on the cycle)",
				joinNames(names)),
		})
	}
}

// cycleIn walks token-free places inside one SCC from start until a
// transition repeats, and returns the place names along the loop.
func (g *Graph) cycleIn(start int, inSCC []bool, adj [][]int) []string {
	var names []string
	seen := make([]bool, len(g.Trans))
	v := start
	for !seen[v] {
		seen[v] = true
		next := -1
		for _, pid := range adj[v] {
			if inSCC[g.Places[pid].Dst] {
				names = append(names, g.Places[pid].Name)
				next = g.Places[pid].Dst
				break
			}
		}
		if next < 0 {
			break
		}
		v = next
	}
	return names
}

func joinNames(names []string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		sb.WriteString(n)
	}
	return sb.String()
}

// checkBounds computes, per place, the maximum token count it can reach:
// its initial marking plus the minimum token count over return paths from
// its consumer back to its producer. No return path means the place is
// unbounded — tokens pour in and nothing ever drains them (a severed
// acknowledge). Any bound above one breaks the single-rail channels the
// controllers implement.
func (g *Graph) checkBounds(r *Report) {
	const inf = int(1) << 30
	buf := newDistBuf(len(g.Trans), inf)
	for _, p := range g.Places {
		d := g.minTokenDist(p.Dst, p.Src, inf, buf)
		if d >= inf {
			r.Safe = false
			r.Findings = append(r.Findings, lint.Finding{
				Rule: RuleSafe, Severity: lint.Error, Module: g.Design,
				Msg: fmt.Sprintf("place %s is unbounded: no acknowledge path returns from %s to %s",
					p.Name, g.Trans[p.Dst].Name, g.Trans[p.Src].Name),
			})
			continue
		}
		bound := p.Tokens + d
		if bound > r.MaxBound {
			r.MaxBound = bound
		}
		if bound > 1 {
			r.Safe = false
			r.Findings = append(r.Findings, lint.Finding{
				Rule: RuleSafe, Severity: lint.Error, Module: g.Design,
				Msg: fmt.Sprintf("place %s can hold %d tokens: the single-rail channel overflows (latch overwrite)",
					p.Name, bound),
			})
		}
	}
}

// minTokenDist is a 0/1-weight shortest path from s to t over places
// (weight = token count, clamped to 1), computed level by level: nodes
// at the current token distance expand through 0-weight places in place,
// 1-weight places feed the next level. The search stops as soon as t is
// popped, since its distance is final then, and the next query resets only
// the entries this one touched — so a query costs the part of the graph
// nearer to s than t, not the whole graph.
func (g *Graph) minTokenDist(s, t, inf int, buf *distBuf) int {
	dist := buf.dist
	for _, v := range buf.touched {
		dist[v] = inf
	}
	touched := append(buf.touched[:0], s)
	dist[s] = 0
	cur, nxt := buf.cur[:0], buf.nxt[:0]
	cur = append(cur, s)
	found := inf
	for d := 0; len(cur) > 0 && found == inf; d++ {
		for len(cur) > 0 {
			v := cur[len(cur)-1]
			cur = cur[:len(cur)-1]
			if dist[v] != d {
				continue // superseded entry
			}
			if v == t {
				found = d
				break
			}
			for _, pid := range g.out[v] {
				p := g.Places[pid]
				w := d
				if p.Tokens != 0 {
					w = d + 1
				}
				if w >= dist[p.Dst] {
					continue
				}
				if dist[p.Dst] == inf {
					touched = append(touched, p.Dst)
				}
				dist[p.Dst] = w
				if w == d {
					cur = append(cur, p.Dst)
				} else {
					nxt = append(nxt, p.Dst)
				}
			}
		}
		cur, nxt = nxt, cur[:0]
	}
	buf.cur, buf.nxt, buf.touched = cur, nxt, touched
	return found
}

// distBuf is the scratch space minTokenDist reuses across the per-place
// bound queries. dist holds inf everywhere except at the touched entries.
type distBuf struct {
	dist, cur, nxt, touched []int
}

func newDistBuf(n, inf int) *distBuf {
	buf := &distBuf{dist: make([]int, n), cur: make([]int, 0, n), nxt: make([]int, 0, n)}
	for i := range buf.dist {
		buf.dist[i] = inf
	}
	return buf
}

// checkDDG cross-checks the request wiring against the data dependencies:
// every data edge u→v in the derived region DDG must be synchronized by a
// request channel from u's controller to v's master (a missing rendezvous
// input lets v capture before u's datum settles — the missing-C-input
// failure class), and every request edge should carry data (pure
// over-synchronization only costs throughput, so it warns).
func (g *Graph) checkDDG(r *Report) {
	regions := g.SortedRegions()
	for _, v := range regions {
		wired := g.wiringPreds[v]
		for _, u := range g.ddgPreds[v] {
			if u == v {
				continue // intra-region edges are the ms place, always present
			}
			if !wired[u] {
				r.Safe = false
				r.Findings = append(r.Findings, lint.Finding{
					Rule: RuleSafe, Severity: lint.Error, Module: g.Design,
					Msg: fmt.Sprintf("region %d feeds region %d data with no request synchronization: region %d can capture before the datum settles (missing rendezvous input?)",
						u, v, v),
				})
			}
		}
		ddg := map[int]bool{}
		for _, u := range g.ddgPreds[v] {
			ddg[u] = true
		}
		var extra []int
		for u := range wired {
			if !ddg[u] && u != v {
				extra = append(extra, u)
			}
		}
		sort.Ints(extra)
		for _, u := range extra {
			r.Findings = append(r.Findings, lint.Finding{
				Rule: RuleSafe, Severity: lint.Warning, Module: g.Design,
				Msg: fmt.Sprintf("request channel G%d>G%d synchronizes no data dependency (over-synchronization: throughput only)", u, v),
			})
		}
	}
}

// tarjan computes strongly connected components over n nodes with the
// given adjacency lists, iteratively, in deterministic node order.
func tarjan(n int, succ [][]int) [][]int {
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	next := 0

	type frame struct {
		v, i int
	}
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			ss := succ[f.v]
			if f.i < len(ss) {
				w := ss[f.i]
				f.i++
				if index[w] < 0 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			if low[f.v] == index[f.v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.v {
						break
					}
				}
				sort.Ints(scc)
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
			}
		}
	}
	return sccs
}

// sortFindings orders findings for byte-identical reports: severity
// (errors first), then rule, then message.
func sortFindings(fs []lint.Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		if fs[i].Net != fs[j].Net {
			return fs[i].Net < fs[j].Net
		}
		return fs[i].Msg < fs[j].Msg
	})
}
