package flowserv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"desync/internal/core"
	"desync/internal/netlist"
	"desync/internal/sta"
	"desync/internal/verilog"
	"desync/internal/vflow"
)

// Artifact names served under /jobs/{id}/artifacts/. Every successful job
// has the first three plus result.json; equiv.json and faults.json appear
// when their gates were requested.
const (
	ArtifactNetlist     = "netlist.v"
	ArtifactConstraints = "constraints.sdc"
	ArtifactLint        = "lint.json"
	ArtifactStatic      = "static.json"
	ArtifactEquiv       = "equiv.json"
	ArtifactFaults      = "faults.json"
	ArtifactResult      = "result.json"
)

// Summary is result.json: what the run produced, in one stable record.
type Summary struct {
	Design      string      `json:"design"`
	Gen         string      `json:"gen,omitempty"`
	Lib         string      `json:"lib"`
	CacheKey    string      `json:"cacheKey"`
	Options     FlowOptions `json:"options"`
	Period      float64     `json:"period"`
	Regions     int         `json:"regions"`
	Cleaned     int         `json:"cleanedCells"`
	FFs         int         `json:"ffsSubstituted"`
	Controllers int         `json:"controllers"`
	DelayCells  int         `json:"delayCells"`
	UnderMargin []int       `json:"underMargin,omitempty"`
	LintErrors  int         `json:"lintErrors"`
	StaticOK    bool        `json:"staticOK"`
	EquivRan    bool        `json:"equivRan"`
	EquivNote   string      `json:"equivNote,omitempty"`
	FaultsRan   bool        `json:"faultsRan"`
	Artifacts   []string    `json:"artifacts"`

	// Degraded lists the fallbacks the run took instead of failing, one
	// per single-region retry or margin bump.
	Degraded []vflow.Verdict `json:"degraded,omitempty"`
}

// runGuarded executes one job's flow with the package's single panic
// quarantine: a panic escaping any kernel (malformed upload driving a
// builder guard, an internal invariant breach) fails that job, never the
// server. The boundary mirrors internal/sweep's runQuarantined and is
// audited in cmd/repolint's recover allowlist.
func runGuarded(ctx context.Context, j *job) (arts map[string][]byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("flow panic (quarantined): %v", r)
		}
	}()
	return runFlow(ctx, j)
}

// testStageHook, when non-nil, is invoked on every stage transition after
// the progress event is recorded. Tests use it to hold a job in flight
// deterministically: the flow on the small generated inputs is far too fast
// to race HTTP cancel/drain requests against.
var testStageHook func(ctx context.Context, stage string)

// runFlow runs one job through the verified flow (internal/vflow) — the
// same gates and fallbacks as drdesync — streaming each stage, gate verdict
// and fallback as an event. It returns the artifacts produced so far even
// on failure, so a tripped gate stays diagnosable over HTTP.
func runFlow(ctx context.Context, j *job) (map[string][]byte, error) {
	arts := map[string][]byte{}
	// Submit-time validation already canonicalized once; a failure here
	// would mean the request mutated in flight.
	opts, err := j.req.Options.Canonicalize()
	if err != nil {
		return arts, fmt.Errorf("options: %w", err)
	}

	period := opts.Period
	if period == 0 {
		period, err = sta.ClockPeriod(ctx, j.design.Top, netlist.Worst, sta.Options{}, 1.05)
		if err != nil {
			return arts, fmt.Errorf("deriving a period from STA: %w (pass options.period)", err)
		}
	}
	flow := opts.coreOptions()
	flow.Period = period
	flow.Progress = func(stage string) {
		j.setStage(stage)
		if testStageHook != nil {
			testStageHook(ctx, stage)
		}
	}
	// The first attempt converts the design built at submit time, whose
	// content hash is the cache key; a fallback retry rebuilds it.
	first := j.design
	out, err := vflow.Run(ctx, func() (*netlist.Design, error) {
		if d := first; d != nil {
			first = nil
			return d, nil
		}
		return j.req.buildDesign()
	}, vflow.Options{
		Flow:  flow,
		Equiv: opts.Equiv, EquivMaxStates: opts.EquivMaxStates,
		Faults: opts.Faults, FaultCycles: opts.FaultCycles, FaultsPerRegion: opts.FaultsPerRegion,
		OnVerdict: func(v vflow.Verdict) {
			switch v.Status {
			case vflow.Ran:
				j.event("gate", v.Step, v.Reason)
			case vflow.Skipped, vflow.Downgraded:
				j.event("note", v.Step, v.Reason)
			} // a failed gate is reported by the job's terminal event
		},
	})
	if out.Lint != nil {
		if lj, err := out.Lint.JSON(); err == nil {
			arts[ArtifactLint] = lj
		}
	}
	if out.Static != nil {
		putJSON(arts, ArtifactStatic, out.Static.WriteJSON)
	}
	if out.Equiv != nil {
		putJSON(arts, ArtifactEquiv, out.Equiv.WriteJSON)
	}
	if out.Faults != nil {
		putJSON(arts, ArtifactFaults, out.Faults.WriteJSON)
	}
	if err != nil {
		return arts, err
	}
	d, res := out.Design, out.Result
	if res.Backend != core.BackendDesync && (j.req.Options.Equiv || j.req.Options.Faults) {
		j.event("note", "gates", "equiv and faults gates are desync-only; dropped at canonicalization")
	}

	arts[ArtifactNetlist] = []byte(verilog.Write(d))
	arts[ArtifactConstraints] = []byte(res.Constraints.Write())
	sum := Summary{
		Design: d.Top.Name, Gen: j.req.Gen, Lib: j.req.Lib,
		CacheKey: j.key, Options: opts,
		Period: period, Regions: res.Grouping.Groups,
		Cleaned: res.CleanedCells, FFs: res.Substitution.FFs,
		UnderMargin: res.UnderMargin, LintErrors: out.Lint.Errors(),
		StaticOK:  out.Verdict(vflow.GateStatic).Status == vflow.Ran,
		EquivRan:  out.Verdict(vflow.GateEquiv).Status == vflow.Ran,
		FaultsRan: opts.Faults,
		Degraded:  out.Degraded,
	}
	if v := out.Verdict(vflow.GateEquiv); v.Status == vflow.Downgraded {
		sum.EquivNote = v.Reason
	} else if out.Equiv != nil && out.Equiv.Truncated {
		sum.EquivNote = fmt.Sprintf("truncated at %d markings; properties hold only up to this bound", out.Equiv.States)
	}
	if res.Insert != nil {
		sum.Controllers = res.Insert.Controllers
		sum.DelayCells = res.Insert.DelayCells
	}
	sum.Artifacts = artifactNames(arts)
	// result.json names itself in the artifact list.
	sum.Artifacts = append(sum.Artifacts, ArtifactResult)
	sj, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return arts, err
	}
	arts[ArtifactResult] = append(sj, '\n')
	for _, name := range sum.Artifacts {
		j.event("artifact", "", name)
	}
	return arts, nil
}

// putJSON stores a report's JSON rendering as an artifact.
func putJSON(arts map[string][]byte, name string, write func(io.Writer) error) {
	var b bytes.Buffer
	if write(&b) == nil {
		arts[name] = b.Bytes()
	}
}
