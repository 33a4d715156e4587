// Package mga is the static marked-graph analysis engine of the flow: it
// reasons about the delay-annotated marked graph underlying the inserted
// controller network — the same extraction internal/equiv explores
// exhaustively — but structurally, in polynomial time, so its verdicts
// scale to designs whose state space no BFS can reach.
//
// The controller network of a desynchronized design is a marked graph (a
// Petri net where every place has one producer and one consumer): each
// region contributes a master-capture and a slave-capture transition, each
// request/acknowledge channel and each master→slave connection contributes
// places whose token counts come from the latch reset phases. On that
// graph three classic results make verification structural:
//
//   - liveness: a marked graph is live iff every directed cycle carries at
//     least one token. Checked by SCC decomposition of the token-free
//     subgraph — no cycle enumeration — plus a dead-input fixpoint over
//     the extracted model's stuck operands (a handshake input that can
//     never transition starves its transition no matter the marking).
//   - safety: the maximum token count a place can reach is its initial
//     count plus the minimum token count over return paths from its
//     consumer back to its producer (a shortest-path computation). A place
//     with no return path is unbounded — a request channel whose
//     acknowledge was severed.
//   - throughput: the steady-state period equals the maximum cycle ratio
//     delay(C)/tokens(C) over all cycles, computed exactly by condensing
//     the token-free subgraph (a DAG once liveness holds) and running
//     Karp's maximum-mean-cycle algorithm, which also names the critical
//     handshake cycle and its bottleneck channel. Token places leaving one
//     transition share their condensed in-edges, so Karp's table has one
//     column per distinct source transition, not per token place, and
//     holds the per-place values bit for bit.
//
// Place delays are priced from the library arcs the simulator uses (worst
// corner, instance delay factors included), walking the actual request
// trees and matched delay chains in the netlist, and serializing the
// return-to-zero half of each four-phase handshake that the controllers
// hide behind computation only partially — so the static period is an
// upper bound on (and on the case studies within a few percent of) the
// simulated steady-state period.
//
// Everything is deterministic: reports are byte-identical across runs and
// worker counts, so mga gates flows the way internal/lint rules do.
package mga

import (
	"desync/internal/ctrlnet"
	"desync/internal/equiv"
	"desync/internal/netlist"
)

// Options configures an analysis. The zero value analyzes at the worst
// corner, the corner the matched delays are sized against.
type Options struct {
	// BestCorner prices the place delays at the best library corner instead
	// of the worst corner (the default) — the corner the matched delays are
	// sized against and the simulator's steady-state measurements use.
	BestCorner bool
}

// corner returns the netlist corner the options select.
func (o Options) corner() netlist.Corner {
	if o.BestCorner {
		return netlist.Best
	}
	return netlist.Worst
}

// Analyze extracts the marked graph of a desynchronized module (reusing
// the shared control-network IR and the equiv model extraction) and runs
// every static check. It fails only when the module has no controller
// network to analyze; verdict-level problems are findings in the report.
func Analyze(mod *netlist.Module, cn *ctrlnet.Network, opts Options) (*Report, error) {
	m, err := equiv.FromNetwork(mod, cn)
	if err != nil {
		return nil, err
	}
	return AnalyzeModel(mod, cn, m, opts), nil
}

// AnalyzeModel is Analyze for callers that already hold the extracted
// equiv model — the static half of a static-vs-BFS comparison over one
// extraction, or a flow that runs both engines.
func AnalyzeModel(mod *netlist.Module, cn *ctrlnet.Network, m *equiv.Model, opts Options) *Report {
	g := BuildGraph(mod, cn, m, opts)
	g.CheckModel(m)
	rep := g.Analyze()
	rep.ModelFindings = m.Findings
	return rep
}

// StateEstimate is the 8^regions protocol-state estimate used to decide
// whether the equiv BFS is within reach of a state budget: each region's
// four-phase handshake lattice has eight phases (the desynchronization
// protocol lattice of Fig 2.4), and the DLX's four regions reach 4013 of
// the 4096 estimated markings. The estimate saturates at 1<<62.
func StateEstimate(regions int) uint64 {
	est := uint64(1)
	for i := 0; i < regions; i++ {
		if est > 1<<59 {
			return 1 << 62
		}
		est *= 8
	}
	return est
}
