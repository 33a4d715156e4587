// Package lint is the static verification engine of the flow: a rule-based
// analyzer that checks netlists before the pipeline runs and the
// desynchronized control network after it, without simulating a single
// vector. It complements the dynamic fault campaigns of internal/faults —
// most failure classes a broken flow can produce (mis-paired req/ack
// channels, incomplete C-element rendezvous, master/slave phase violations,
// delay elements shorter than the datapath they match, timing loops no SDC
// constraint breaks) are structurally detectable, which is the territory
// formal approaches to desynchronization (flow-equivalence checking) cover
// with proofs and this engine covers with rules.
//
// Two rule families exist. Netlist rules (NL-*) apply to any imported
// design; desynchronization rules (DS-*) apply to a post-flow design and
// cross-check the control network against the derived region graph, the
// timing analysis, and the generated SDC constraints.
package lint

import (
	"sort"

	"desync/internal/ctrlnet"
	"desync/internal/netlist"
	"desync/internal/sdc"
)

// Severity orders findings. Error findings make drlint exit non-zero and
// abort the drdesync flow gates; Warning findings are reported but do not
// gate; Info findings are advisory notes.
type Severity int

// Severity levels, least severe first.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "unknown"
}

// Rule identifiers. The IDs are stable: baselines, golden tests and the
// DESIGN.md catalog refer to them by name.
const (
	// Netlist rules — any design.
	RuleValidate = "NL-VALIDATE" // structural invariant violation (netlist.Validate)
	RulePin      = "NL-PIN"      // unconnected instance pin
	RuleFloat    = "NL-FLOAT"    // net with sinks but no driver
	RuleMulti    = "NL-MULTI"    // net driven by more than one output
	RuleLoop     = "NL-LOOP"     // combinational loop outside control cells
	RuleCone     = "NL-CONE"     // logic cone unreachable from any observable point
	RuleName     = "NL-NAME"     // names colliding after escaped-name simplification

	// Desynchronization rules — post-flow design.
	RuleFF     = "DS-FF"     // flip-flop survived substitution
	RuleEnable = "DS-ENABLE" // latch enable not rooted at a controller
	RulePhase  = "DS-PHASE"  // master/slave phases do not alternate on a data path
	RulePair   = "DS-PAIR"   // req/ack channel pairing disagrees with the region graph
	RuleCElem  = "DS-CELEM"  // C-element rendezvous input incomplete
	RuleMargin = "DS-MARGIN" // matched delay element under its STA budget
	RuleSDC    = "DS-SDC"    // control loop not covered by an SDC loop-breaking constraint

	// Two-phase rules — a design converted by the twophase backend.
	RuleTPFF      = "TP-FF"      // flip-flop survived substitution
	RuleTPGen     = "TP-GEN"     // generator structure incomplete
	RuleTPPhase   = "TP-PHASE"   // latch enable not rooted at a phase, or adjacent latches sharing one
	RuleTPOverlap = "TP-OVERLAP" // phase clock waveforms overlap or non-overlap chains missing
	RuleTPSDC     = "TP-SDC"     // generator loop not covered by an SDC loop-breaking constraint
)

// RuleInfo describes one rule for the catalog (drlint -rules, DESIGN.MD §9).
type RuleInfo struct {
	ID       string
	Severity Severity
	Summary  string
}

// Rules is the catalog of everything the engine can report, in report order.
var Rules = []RuleInfo{
	{RuleValidate, Error, "structural invariant violation (wrapped netlist.Validate finding)"},
	{RulePin, Error, "unconnected instance pin (inputs error, outputs warn)"},
	{RuleFloat, Error, "net with sinks but no driver"},
	{RuleMulti, Error, "net driven by more than one output pin or input port"},
	{RuleLoop, Error, "combinational loop outside handshake/control cells"},
	{RuleCone, Warning, "combinational cone unreachable from any port or sequential input"},
	{RuleName, Warning, "distinct names that collide after escaped-name simplification"},
	{RuleFF, Error, "flip-flop survived master/slave substitution"},
	{RuleEnable, Error, "latch enable not driven (solely) by one controller phase"},
	{RulePhase, Error, "latch-to-latch data path without master/slave phase alternation"},
	{RulePair, Error, "req/ack channel wiring disagrees with the derived region graph"},
	{RuleCElem, Error, "C-element input missing, constant, or duplicated"},
	{RuleMargin, Error, "matched delay element shorter than its region's STA budget"},
	{RuleSDC, Error, "cyclic control path not covered by a loop-breaking constraint"},
	{RuleTPFF, Error, "flip-flop survived master/slave substitution (two-phase flow)"},
	{RuleTPGen, Error, "two-phase generator incomplete (ring, splitter, or distribution)"},
	{RuleTPPhase, Error, "latch enable not rooted at a phase, or adjacent latches on one phase"},
	{RuleTPOverlap, Error, "phase clock waveforms overlap or non-overlap chains missing"},
	{RuleTPSDC, Error, "generator loop not covered by a loop-breaking constraint"},
}

// Finding is one rule violation, located as precisely as the rule allows.
type Finding struct {
	Rule       string   `json:"rule"`
	Severity   Severity `json:"-"`
	Module     string   `json:"module,omitempty"`
	Inst       string   `json:"inst,omitempty"`
	Net        string   `json:"net,omitempty"`
	Msg        string   `json:"msg"`
	Suppressed bool     `json:"suppressed,omitempty"`
}

// Key is the finding's baseline identity: rule and location, not message,
// so a suppression survives cosmetic message changes.
func (f Finding) Key() string {
	return f.Rule + "|" + f.Module + "|" + f.Inst + "|" + f.Net
}

// Report is an ordered collection of findings.
type Report struct {
	Findings []Finding
}

func (r *Report) add(f Finding) { r.Findings = append(r.Findings, f) }

// Merge appends findings produced by another engine (equiv, mga) to the
// report, preserving their order, so flow gates aggregate every analysis
// into one reporting and baseline surface.
func (r *Report) Merge(fs []Finding) { r.Findings = append(r.Findings, fs...) }

func (r *Report) addf(rule string, sev Severity, module, inst, net, msg string) {
	r.add(Finding{Rule: rule, Severity: sev, Module: module, Inst: inst, Net: net, Msg: msg})
}

// Sort orders findings most severe first, then by rule and location, so
// text output, JSON output and golden tests are deterministic.
func (r *Report) Sort() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.Inst != b.Inst {
			return a.Inst < b.Inst
		}
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		return a.Msg < b.Msg
	})
}

// Count returns the number of unsuppressed findings at or above min.
func (r *Report) Count(min Severity) int {
	n := 0
	for _, f := range r.Findings {
		if !f.Suppressed && f.Severity >= min {
			n++
		}
	}
	return n
}

// Errors is the number of unsuppressed Error findings — the quantity exit
// codes and flow gates key on.
func (r *Report) Errors() int { return r.Count(Error) }

// ByRule returns the unsuppressed findings carrying the given rule ID.
func (r *Report) ByRule(id string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Suppressed && f.Rule == id {
			out = append(out, f)
		}
	}
	return out
}

// Options selects which rules run and supplies their cross-check inputs.
type Options struct {
	// MidFlow marks a snapshot between flow stages, where nets legally wait
	// for a driver (latch enables between substitution and insertion): the
	// floating-net rule is suspended and validation runs in the same relaxed
	// mode the flow itself uses.
	MidFlow bool
	// Desync enables the DS-* family: the module is expected to be a
	// complete post-flow design with a controller network.
	Desync bool
	// TwoPhase enables the TP-* family: the module is expected to be a
	// complete post-flow design with a two-phase clock generator.
	TwoPhase bool
	// Constraints is the generated SDC used by the DS-SDC and DS-MARGIN
	// rules. When nil and Desync is set, loop coverage cannot be
	// cross-checked and the engine says so with an Info finding.
	Constraints *sdc.Constraints
	// Network is an already-derived control-network IR for the module under
	// check. Callers that derived one (the flow, cmd/drdesync) pass it so
	// one derivation serves the whole run; when nil — or when it belongs to
	// a different module — the DS-* rules derive their own via
	// ctrlnet.Derive, which is itself memoized.
	Network *ctrlnet.Network
}

// Check runs the selected rule families over one flat module and returns
// the sorted report: the NL-* family, then the conversion family opts
// selects (see CheckConversion). The module is not modified, with one
// documented exception: on a design re-read from Verilog (where in-memory
// Group tags are gone) the desync rules recover each latch's region from
// its enable root and store it back, so the timing cross-checks can
// attribute budgets.
func Check(m *netlist.Module, opts Options) *Report {
	r := &Report{}
	r.checkNetlist(m, opts, false)
	r.checkConversion(m, opts)
	r.Sort()
	return r
}

// CheckNetlistErrors runs only the NL-* rules whose catalog severity is
// Error — NL-VALIDATE, NL-PIN, NL-FLOAT (not mid-flow), NL-MULTI and
// NL-LOOP — over one module and returns the sorted report. Its Error
// findings, and so Errors() and the leading finding when there is an error,
// are exactly those of Check(m, Options{MidFlow: midFlow}); the
// warning-only rules NL-CONE and NL-NAME do not run. It is the check for a
// gate that decides on errors alone.
func CheckNetlistErrors(m *netlist.Module, midFlow bool) *Report {
	r := &Report{}
	r.checkNetlist(m, Options{MidFlow: midFlow}, true)
	r.Sort()
	return r
}

// CheckConversion runs only the post-conversion family opts selects — DS-*
// under Desync, TP-* under TwoPhase — and returns the sorted report.
// Merging it with the NL-* report of the same module state and sorting
// gives exactly Check's report, so a caller that already holds the NL-*
// findings of that state need not compute them twice.
func CheckConversion(m *netlist.Module, opts Options) *Report {
	r := &Report{}
	r.checkConversion(m, opts)
	r.Sort()
	return r
}

// checkConversion runs the conversion families opts selects.
func (r *Report) checkConversion(m *netlist.Module, opts Options) {
	if opts.Desync {
		r.checkDesync(m, opts)
	}
	if opts.TwoPhase {
		r.checkTwoPhase(m, opts)
	}
}

// CheckDesign lints every module of a design with the netlist family and,
// when requested, the top module with the conversion family.
func CheckDesign(d *netlist.Design, opts Options) *Report {
	r := &Report{}
	for _, m := range d.Modules {
		if m == d.Top {
			continue
		}
		r.checkNetlist(m, opts, false)
	}
	r.checkNetlist(d.Top, opts, false)
	r.checkConversion(d.Top, opts)
	r.Sort()
	return r
}
