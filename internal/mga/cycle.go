package mga

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"desync/internal/lint"
)

// analyzeCycles computes the maximum cycle ratio delay(C)/tokens(C) over
// all directed cycles — the steady-state period of the handshake network
// — together with one cycle attaining it, exactly and without cycle
// enumeration:
//
//  1. Once liveness holds, the token-free subgraph is a DAG. Condense the
//     graph onto its token-carrying places: an edge p→q means q's source
//     transition is reachable from p's destination through token-free
//     places, weighted by p's delay plus the longest token-free path
//     between them (longest, because every transition is a rendezvous —
//     it fires when its last input arrives).
//  2. Every cycle of the condensed graph spends exactly one token per
//     edge, so the maximum cycle *ratio* of the original graph is the
//     maximum cycle *mean* of the condensed one — Karp's algorithm, with
//     the critical cycle recovered from the walk that attains the bound.
//
// An edge p→q depends on q only through q's source transition, so every
// token place leaving one transition b has the same condensed in-edges:
// Karp's table keeps one column per distinct source transition (X[k][b]
// is the heaviest k-edge walk ending at any token place leaving b), and
// the in-edges of a column that leave one source transition merge into
// their heaviest, since round-to-nearest addition is monotone
// (x + max w = max(x + w), bit for bit). That is Karp over every token
// place, value for value, at the cost of its distinct sources; the walk's
// parents are recovered afterwards, only along the walk.
//
// Places with more than one initial token would make the condensation
// undercount tokens (raising the computed period — still a sound upper
// bound); the builder never creates them and checkBounds flags them.
func (g *Graph) analyzeCycles(r *Report) {
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
	lp := g.newLongPaths()
	cg := g.condense(tok, lp)
	c := len(cg.cols)

	// Karp: X[k][b] is the maximum weight of a k-edge walk from a virtual
	// source (X[0] = 0 everywhere) ending at a token place leaving column
	// b's transition. A -inf entry stays -inf through the additions, so it
	// never wins a maximum.
	neg := math.Inf(-1)
	X := make([]float64, (m+1)*c) // X[k*c+b], flat
	for k := 1; k <= m; k++ {
		prev, cur := X[(k-1)*c:k*c], X[k*c:(k+1)*c]
		for b := range cur {
			best := neg
			for _, e := range cg.merged[cg.mergedAt[b]:cg.mergedAt[b+1]] {
				if d := prev[e.from] + e.w; d > best {
					best = d
				}
			}
			cur[b] = best
		}
	}
	// Per column, the minimum over k of (X[m] - X[k]) / (m - k), row by
	// row; a -inf X[k] gives +inf, which never lowers it, and columns with
	// a -inf X[m] are skipped below.
	last := X[m*c:]
	low := make([]float64, c)
	for b := range low {
		low[b] = math.Inf(1)
	}
	for k := 0; k < m; k++ {
		for b, x := range X[k*c : (k+1)*c] {
			if mu := (last[b] - x) / float64(m-k); mu < low[b] {
				low[b] = mu
			}
		}
	}
	best, bestV := neg, -1
	for v := 0; v < m; v++ {
		b := cg.srcCol[v]
		if last[b] == neg {
			continue
		}
		if low[b] > best {
			best, bestV = low[b], v
		}
	}
	if bestV < 0 {
		return // acyclic control graph (single region with environment on both sides is still cyclic)
	}

	// Critical cycle: walk the parent chain of the maximal walk back from
	// step m; some token place repeats within m steps, and the repeated
	// segment is a cycle whose mean is the maximum (Karp's standard
	// reconstruction).
	walk := make([]int, 0, m+1)
	seen := make([]int, m) // position of a token place in walk, or -1
	for i := range seen {
		seen[i] = -1
	}
	var cyc []int
	for k, v := m, bestV; k >= 0 && v >= 0; k-- {
		if j := seen[v]; j >= 0 {
			cyc = walk[j:]
			break
		}
		seen[v] = len(walk)
		walk = append(walk, v)
		v = cg.parent(X, k, v)
	}
	if len(cyc) == 0 {
		cyc = []int{bestV}
	}
	// The walk was collected end-first: reverse to firing order.
	for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
		cyc[i], cyc[j] = cyc[j], cyc[i]
	}

	// Expand token places back to place names, inserting the token-free
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
		lp.column(next.Src) // via reads this column
		at := p.Dst
		for at != next.Src {
			pid := lp.via(at)
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

// longPaths answers longest token-free path queries one target at a time.
// column(b) fills col[a], the longest delay over token-free places from a
// to b (-inf when there is no such path), visiting only the transitions
// that reach b, successors first in one fixed reverse topological order of
// the token-free DAG.
type longPaths struct {
	g       *Graph
	rank    []int     // position of each transition in the reverse topological order
	col     []float64 // the last column filled
	reach   []int     // the transitions that reach the last target, by rank
	inReach []bool    // membership of reach
}

func (g *Graph) newLongPaths() *longPaths {
	n := len(g.Trans)
	lp := &longPaths{g: g, rank: make([]int, n), col: make([]float64, n), inReach: make([]bool, n)}
	// Reverse topological order of the token-free DAG: successors first.
	state := make([]int, n) // 0 unvisited, 1 visiting, 2 done
	next := 0
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
		lp.rank[v] = next
		next++
	}
	for v := 0; v < n; v++ {
		if state[v] == 0 {
			visit(v)
		}
	}
	for i := range lp.col {
		lp.col[i] = math.Inf(-1)
	}
	return lp
}

// column fills col for target b and returns it; the previous column is
// cleared first, so a query costs the part of the graph that reaches b.
func (lp *longPaths) column(b int) []float64 {
	g, col := lp.g, lp.col
	for _, a := range lp.reach {
		col[a], lp.inReach[a] = math.Inf(-1), false
	}
	lp.reach = append(lp.reach[:0], b)
	lp.inReach[b] = true
	for i := 0; i < len(lp.reach); i++ {
		for _, pid := range g.in[lp.reach[i]] {
			if p := &g.Places[pid]; p.Tokens == 0 && !lp.inReach[p.Src] {
				lp.inReach[p.Src] = true
				lp.reach = append(lp.reach, p.Src)
			}
		}
	}
	slices.SortFunc(lp.reach, func(x, y int) int { return lp.rank[x] - lp.rank[y] })
	col[b] = 0
	for _, a := range lp.reach { // successors of a are already final
		for _, pid := range g.out[a] {
			p := &g.Places[pid]
			if p.Tokens > 0 {
				continue
			}
			if d := p.Delay + col[p.Dst]; d > col[a] {
				col[a] = d
			}
		}
	}
	return col
}

// via returns the first token-free place out of a, in out-list order, that
// starts a longest path to the last column's target (the place a strict >
// scan of the out-list keeps), or -1 when a does not reach the target.
func (lp *longPaths) via(a int) int {
	col := lp.col
	if col[a] == math.Inf(-1) {
		return -1
	}
	for _, pid := range lp.g.out[a] {
		if p := &lp.g.Places[pid]; p.Tokens == 0 && p.Delay+col[p.Dst] == col[a] {
			return pid
		}
	}
	return -1
}

// condensed is the condensed graph stored by Karp column: one column per
// distinct source transition of a token place.
type condensed struct {
	cols   []int   // the source transition of each column, ascending
	srcCol []int32 // the column of each token place's source transition
	// in lists, per column, every token place with a condensed edge into
	// the column's token places, with the edge weight (from is the token
	// place); merged keeps the heaviest of those per source column (from
	// is the column). Column b owns in[inAt[b]:inAt[b+1]] and likewise
	// for merged.
	in, merged     []cedge
	inAt, mergedAt []int
}

// cedge is one condensed edge into a column: where it comes from (a token
// place or a column) and its weight.
type cedge struct {
	from int32
	w    float64
}

// condense builds the condensed graph over the token places tok. Column
// b's in-edges come from the token places consumed by the transitions that
// reach b, each weighted by its delay plus the longest token-free path on.
func (g *Graph) condense(tok []int, lp *longPaths) *condensed {
	cg := &condensed{srcCol: make([]int32, len(tok))}
	tokOf := make([]int32, len(g.Places))
	for u, pid := range tok {
		tokOf[pid] = int32(u)
		cg.cols = append(cg.cols, g.Places[pid].Src)
	}
	slices.Sort(cg.cols)
	cg.cols = slices.Compact(cg.cols)
	colOf := make([]int32, len(g.Trans))
	for ci, t := range cg.cols {
		colOf[t] = int32(ci)
	}
	for u, pid := range tok {
		cg.srcCol[u] = colOf[g.Places[pid].Src]
	}
	c := len(cg.cols)
	cg.inAt = make([]int, 1, c+1)
	cg.mergedAt = make([]int, 1, c+1)
	heaviest := make([]float64, c) // per source column, while merging one column
	for i := range heaviest {
		heaviest[i] = math.Inf(-1)
	}
	var touched []int32
	for _, b := range cg.cols {
		col := lp.column(b)
		for _, a := range lp.reach {
			for _, pid := range g.in[a] {
				p := &g.Places[pid]
				if p.Tokens == 0 {
					continue
				}
				u := tokOf[pid]
				w := p.Delay + col[a]
				cg.in = append(cg.in, cedge{u, w})
				s := cg.srcCol[u]
				if heaviest[s] == math.Inf(-1) {
					touched = append(touched, s)
				}
				heaviest[s] = max(heaviest[s], w)
			}
		}
		for _, s := range touched {
			cg.merged = append(cg.merged, cedge{s, heaviest[s]})
			heaviest[s] = math.Inf(-1)
		}
		touched = touched[:0]
		cg.inAt = append(cg.inAt, len(cg.in))
		cg.mergedAt = append(cg.mergedAt, len(cg.merged))
	}
	return cg
}

// parent returns the predecessor of token place v on a heaviest k-edge
// walk, or -1 at step 0: the lowest-index token place whose edge into v
// attains X[k][v] from X[k-1], the one a per-place recurrence relaxing
// token places in ascending order with a strict > keeps.
func (cg *condensed) parent(X []float64, k, v int) int {
	if k == 0 {
		return -1
	}
	c := len(cg.cols)
	b := int(cg.srcCol[v])
	want, prev := X[k*c+b], X[(k-1)*c:k*c]
	best := -1
	for _, e := range cg.in[cg.inAt[b]:cg.inAt[b+1]] {
		u := int(e.from)
		if prev[cg.srcCol[u]]+e.w == want && (best < 0 || u < best) {
			best = u
		}
	}
	return best
}

// bottleneckOf names the channel contributing the largest delay on the
// critical cycle (falling back to the slowest place's name).
func bottleneckOf(g *Graph, names []string) string {
	bestD, best := -1.0, ""
	for _, nm := range names {
		for i := range g.Places {
			p := &g.Places[i]
			if p.Name != nm {
				continue
			}
			label := p.Channel
			if label == "" {
				label = p.Name
			}
			if p.Delay > bestD {
				bestD, best = p.Delay, label
			}
			break
		}
	}
	return best
}

// perRegion reports, for every region, its locally worst channel cycle —
// the request/acknowledge place pair with the highest ratio — as an
// advisory MG-PERF finding, so a designer sees which channel to retime
// even when it is not the global bottleneck.
func (g *Graph) perRegion(r *Report) {
	type pair struct {
		period  float64
		channel string
	}
	worst := map[int]pair{}
	for _, p := range g.Places {
		if p.Channel == "" {
			continue
		}
		v := g.Trans[p.Dst].Region
		if v < 0 {
			continue
		}
		// Close the channel cycle: the reverse place between the same two
		// transitions (acknowledge for a request, reopen for an env edge).
		total, tokens := p.Delay, p.Tokens
		back := -1
		for _, qid := range g.out[p.Dst] {
			if g.Places[qid].Dst == p.Src {
				if back < 0 || g.Places[qid].Delay > g.Places[back].Delay {
					back = qid
				}
			}
		}
		if back >= 0 {
			total += g.Places[back].Delay
			tokens += g.Places[back].Tokens
		}
		if tokens == 0 {
			continue // liveness already rejected this cycle
		}
		ratio := total / float64(tokens)
		if w, ok := worst[v]; !ok || ratio > w.period {
			worst[v] = pair{ratio, p.Channel}
		}
	}
	regions := make([]int, 0, len(worst))
	for v := range worst {
		regions = append(regions, v)
	}
	sort.Ints(regions)
	for _, v := range regions {
		w := worst[v]
		r.PerRegion = append(r.PerRegion, RegionPerf{Region: v, Channel: w.channel, PeriodNs: w.period})
		r.Findings = append(r.Findings, lint.Finding{
			Rule: RulePerf, Severity: lint.Info, Module: g.Design,
			Msg: fmt.Sprintf("region %d bottleneck channel %s: local cycle %.4f ns", v, w.channel, w.period),
		})
	}
}
