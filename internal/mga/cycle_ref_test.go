package mga

import (
	"fmt"
	"math"

	"desync/internal/lint"
)

// The cycle-ratio pass as it was before it ran over source transitions:
// dense n×n longest-path and via tables over transitions, and Karp over
// every token place with an (m+1)×m value table and a parent table of the
// same size. It is kept as the reference the differential tests hold
// analyzeCycles to, bit for bit; only the names differ from the original.

// refAnalyze is Analyze with the reference cycle pass.
func (g *Graph) refAnalyze() *Report {
	g.index()
	r := &Report{
		Design:      g.Design,
		Regions:     len(g.masterOf),
		Transitions: len(g.Trans),
		PlaceCount:  len(g.Places),
		Live:        true,
		Safe:        true,
	}
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
		g.refAnalyzeCycles(r)
	} else {
		r.Findings = append(r.Findings, lint.Finding{
			Rule: RuleCycle, Severity: lint.Info, Module: g.Design,
			Msg: "throughput analysis skipped: the marked graph is not live",
		})
	}
	sortFindings(r.Findings)
	return r
}

func (g *Graph) refAnalyzeCycles(r *Report) {
	// Longest token-free path between transitions, by DP over a reverse
	// topological order of the token-free DAG.
	n := len(g.Trans)
	order := make([]int, 0, n)
	state := make([]int, n) // 0 unvisited, 1 visiting, 2 done
	var visit func(v int)
	visit = func(v int) {
		state[v] = 1
		for _, pid := range g.out[v] {
			p := g.Places[pid]
			if p.Tokens > 0 || state[p.Dst] != 0 {
				continue
			}
			visit(p.Dst)
		}
		state[v] = 2
		order = append(order, v)
	}
	for v := 0; v < n; v++ {
		if state[v] == 0 {
			visit(v)
		}
	}
	// order is reverse-topological: successors first. long[a*n+b] is the
	// longest token-free delay from a to b; via[a*n+b] the first place on
	// that path, for cycle reconstruction. Flat n×n arrays: this runs on
	// the lint path of every drdesync invocation.
	neg := math.Inf(-1)
	long := make([]float64, n*n)
	via := make([]int, n*n)
	for i := range long {
		long[i] = neg
		via[i] = -1
	}
	for i := 0; i < n; i++ {
		long[i*n+i] = 0
	}
	for _, a := range order { // successors of a are already final
		for _, pid := range g.out[a] {
			p := g.Places[pid]
			if p.Tokens > 0 {
				continue
			}
			for b := 0; b < n; b++ {
				if long[p.Dst*n+b] == neg {
					continue
				}
				if d := p.Delay + long[p.Dst*n+b]; d > long[a*n+b] {
					long[a*n+b] = d
					via[a*n+b] = pid
				}
			}
		}
	}

	// Condensed graph over token places.
	var tok []int // place ids
	for _, p := range g.Places {
		if p.Tokens > 0 {
			tok = append(tok, p.ID)
		}
	}
	m := len(tok)
	if m == 0 {
		return // no tokens, no cycles (liveness would have failed on any cycle)
	}
	type cedge struct {
		to int
		w  float64
	}
	adj := make([][]cedge, m)
	for i, pid := range tok {
		p := g.Places[pid]
		for j, qid := range tok {
			q := g.Places[qid]
			if long[p.Dst*n+q.Src] == neg {
				continue
			}
			adj[i] = append(adj[i], cedge{j, p.Delay + long[p.Dst*n+q.Src]})
		}
	}

	// Karp: D[k][v] = maximum weight of a k-edge walk ending at v from a
	// virtual source (D[0] = 0 everywhere); parent pointers recover the
	// critical walk.
	D := make([]float64, (m+1)*m) // D[k*m+v], flat
	par := make([]int, (m+1)*m)   // parent condensed node at step k
	for i := range D {
		D[i] = neg
		par[i] = -1
	}
	for v := 0; v < m; v++ {
		D[v] = 0
	}
	for k := 1; k <= m; k++ {
		for u := 0; u < m; u++ {
			if D[(k-1)*m+u] == neg {
				continue
			}
			for _, e := range adj[u] {
				if d := D[(k-1)*m+u] + e.w; d > D[k*m+e.to] {
					D[k*m+e.to] = d
					par[k*m+e.to] = u
				}
			}
		}
	}
	best, bestV := neg, -1
	for v := 0; v < m; v++ {
		if D[m*m+v] == neg {
			continue
		}
		low := math.Inf(1)
		for k := 0; k < m; k++ {
			if D[k*m+v] == neg {
				continue
			}
			if mu := (D[m*m+v] - D[k*m+v]) / float64(m-k); mu < low {
				low = mu
			}
		}
		if low > best {
			best, bestV = low, v
		}
	}
	if bestV < 0 {
		return // acyclic control graph (single region with environment on both sides is still cyclic)
	}

	// Critical cycle: walk the parent chain of the maximal walk; some
	// condensed node repeats within m steps, and the repeated segment is a
	// cycle whose mean is the maximum (Karp's standard reconstruction).
	walk := make([]int, 0, m+1)
	v := bestV
	for k := m; k >= 0 && v >= 0; k-- {
		walk = append(walk, v)
		v = par[k*m+v]
	}
	// walk is reversed (end first); find a repeated node (the walk has at
	// most m+1 entries, so a linear scan beats a map).
	var cyc []int
	for i, u := range walk {
		for j := 0; j < i; j++ {
			if walk[j] == u {
				cyc = append(cyc, walk[j:i]...)
				break
			}
		}
		if len(cyc) > 0 {
			break
		}
	}
	if len(cyc) == 0 {
		cyc = []int{bestV}
	}
	// The walk was collected end-first: reverse to firing order.
	for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
		cyc[i], cyc[j] = cyc[j], cyc[i]
	}

	// Expand condensed nodes back to place names, inserting the token-free
	// path between consecutive token places, and recompute the exact
	// ratio of the extracted cycle (guards the reconstruction).
	var names []string
	total, tokens := 0.0, 0
	for i, ci := range cyc {
		p := g.Places[tok[ci]]
		names = append(names, p.Name)
		total += p.Delay
		tokens += p.Tokens
		next := g.Places[tok[cyc[(i+1)%len(cyc)]]]
		at := p.Dst
		for at != next.Src {
			pid := via[at*n+next.Src]
			if pid < 0 {
				break
			}
			q := g.Places[pid]
			names = append(names, q.Name)
			total += q.Delay
			at = q.Dst
		}
	}
	period := best
	if tokens > 0 {
		if ratio := total / float64(tokens); ratio > period-1e-9 {
			period = ratio // exact ratio of the named cycle
		}
	}
	r.PeriodNs = period
	r.CriticalCycle = names
	r.Bottleneck = bottleneckOf(g, names)
	r.Findings = append(r.Findings, lint.Finding{
		Rule: RuleCycle, Severity: lint.Info, Module: g.Design,
		Msg: fmt.Sprintf("critical handshake cycle %s: static period bound %.4f ns", joinNames(names), period),
	})
	g.perRegion(r)
}
