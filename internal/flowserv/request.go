package flowserv

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
	"desync/internal/vflow"
)

// cacheKeyVersion is folded into every cache key so a change to the flow's
// canonicalization (new option, different defaults) invalidates old entries
// instead of serving results computed under different semantics. v2: the
// backend/mode pair replaced the cdet boolean and the canonical form now
// spells out the backend defaults.
const cacheKeyVersion = "drserve-cache-v2"

// FlowOptions is the client-facing option set of one job, a JSON mirror of
// core.Options plus the optional verification gates. Zero values mean the
// flow defaults (backend desync, mode matched, margin 1.15); Canonicalize
// makes the defaults explicit so equivalent requests share one cache entry.
type FlowOptions struct {
	// Backend selects the clocking-conversion backend: "desync" (the
	// default, the paper's handshake control network) or any other backend
	// registered with the core flow, e.g. "twophase".
	Backend string `json:"backend,omitempty"`
	// Mode selects a backend sub-strategy. For the desync backend:
	// "matched" (default) or "cdet" (dual-rail completion detection,
	// §2.4.4). Backends without modes reject a non-empty value.
	Mode string `json:"mode,omitempty"`
	// Period is the original clock period in ns; 0 derives it from STA over
	// the input design (worst launch-to-capture budget x 1.05).
	Period float64 `json:"period,omitempty"`
	// Margin scales the matched delay elements; 0 means 1.15.
	Margin float64 `json:"margin,omitempty"`
	// MuxTaps builds 8-tap multiplexed delay elements.
	MuxTaps bool `json:"mux,omitempty"`
	// ManualGroups keeps the Group fields already on the instances.
	ManualGroups bool `json:"manualGroups,omitempty"`
	// SkipClean disables buffer/inverter-pair removal.
	SkipClean bool `json:"skipClean,omitempty"`
	// Equiv runs the exhaustive marked-graph gate post-export (skipped with
	// an explicit note when the state estimate exceeds the budget).
	Equiv bool `json:"equiv,omitempty"`
	// EquivMaxStates bounds the equiv gate; 0 means the engine default.
	EquivMaxStates int `json:"equivMaxStates,omitempty"`
	// Faults runs the fault-injection campaign and attaches its report.
	Faults bool `json:"faults,omitempty"`
	// FaultCycles is the campaign run length in clock periods; 0 means
	// vflow.DefaultFaultCycles.
	FaultCycles int `json:"faultCycles,omitempty"`
	// FaultsPerRegion is the delay faults injected per region; 0 means
	// vflow.DefaultFaultsPerRegion.
	FaultsPerRegion int `json:"faultsPerRegion,omitempty"`
}

// JobRequest is the body of POST /jobs: exactly one of Gen (a built-in
// case-study generator) or Verilog (an uploaded gate-level netlist).
type JobRequest struct {
	// Gen names a built-in design in the designs.ParseSpec grammar: a fixed
	// case study (dlx, arm, fir) or a parametric spec such as
	// "pipeline:depth=32,width=64,regions=100".
	Gen string `json:"gen,omitempty"`
	// Verilog is an uploaded gate-level netlist source.
	Verilog string `json:"verilog,omitempty"`
	// Top selects the top module of an upload (default: auto-detect).
	Top string `json:"top,omitempty"`
	// Lib is the technology library variant: HS or LL. Defaults to HS, or
	// LL for gen=arm (the paper's ARM uses the low-leakage library).
	Lib string `json:"lib,omitempty"`
	// Options configures the flow and its gates.
	Options FlowOptions `json:"options"`
}

// coreOptions maps the JSON mirror's flow knobs onto the flow's own option
// type. The gate knobs (equiv, faults) are server-side and stay behind.
func (o FlowOptions) coreOptions() core.Options {
	return core.Options{
		Backend:      o.Backend,
		Mode:         core.Mode(o.Mode),
		Period:       o.Period,
		Margin:       o.Margin,
		MuxTaps:      o.MuxTaps,
		ManualGroups: o.ManualGroups,
		SkipClean:    o.SkipClean,
	}
}

// Canonicalize returns the options with every documented default applied
// — the form that is hashed into the cache key, so that {} and
// {"margin":1.15} address the same entry. The flow knobs defer to
// core.Options.Canonicalize — defaulting is defined once, there — so the
// server can never hash a different canonical form than the flow runs; an
// error names an unknown backend or mode.
func (o FlowOptions) Canonicalize() (FlowOptions, error) {
	co, err := o.coreOptions().Canonicalize()
	if err != nil {
		return o, err
	}
	c := o
	c.Backend = co.Backend
	c.Mode = string(co.Mode)
	c.Margin = co.Margin
	c.MuxTaps = co.MuxTaps
	if c.Backend != core.BackendDesync {
		// The equiv and faults gates model the handshake control network, so
		// under any other backend they are inert: zero them so a request that
		// asked anyway shares the cache entry of one that did not. The run
		// reports the drop with a note event.
		c.Equiv = false
		c.Faults = false
	}
	if c.FaultCycles == 0 {
		c.FaultCycles = vflow.DefaultFaultCycles
	}
	if c.FaultsPerRegion == 0 {
		c.FaultsPerRegion = vflow.DefaultFaultsPerRegion
	}
	if !c.Faults {
		// Fault knobs are inert without the campaign; normalize them away
		// so they cannot split cache entries.
		c.FaultCycles = 0
		c.FaultsPerRegion = 0
	}
	if !c.Equiv {
		c.EquivMaxStates = 0
	}
	return c, nil
}

// validate rejects malformed requests before any work happens.
func (r *JobRequest) validate() error {
	if (r.Gen == "") == (r.Verilog == "") {
		return fmt.Errorf("exactly one of gen and verilog is required")
	}
	if r.Gen != "" && !designs.ValidSpec(r.Gen) {
		return fmt.Errorf("unknown gen design %q (want %s, with pipeline key=value params)", r.Gen, strings.Join(designs.SpecNames(), "|"))
	}
	switch r.Lib {
	case "", "HS", "LL":
	default:
		return fmt.Errorf("unknown library variant %q (want HS or LL)", r.Lib)
	}
	if r.Gen != "" && r.Top != "" {
		return fmt.Errorf("top applies to uploads only")
	}
	// Backend and mode are validated by the flow's own canonicalization, so
	// an unknown pair is rejected at submit time, not mid-run.
	if _, err := r.Options.Canonicalize(); err != nil {
		return fmt.Errorf("options: %w", err)
	}
	return nil
}

// libVariant resolves the request's library variant with the per-design
// default (ARM is an LL design in the paper).
func (r *JobRequest) libVariant() stdcells.Variant {
	if r.Lib != "" {
		return stdcells.Variant(r.Lib)
	}
	if r.Gen != "" {
		return designs.DefaultLibVariant(r.Gen)
	}
	return stdcells.HighSpeed
}

// testBuildHook, when non-nil, is invoked on every input build. Tests use
// it to count builds: a memoized resubmission must not build at all.
var testBuildHook func()

// buildDesign constructs the input design: a generator build or an upload
// parse. For pre-grouped generators the request's ManualGroups is forced
// on — the generator bakes the region assignment into the instances
// (§5.3) — and the canonical options reflect that, so the forced and the
// explicit form share a cache entry.
func (r *JobRequest) buildDesign() (*netlist.Design, error) {
	if testBuildHook != nil {
		testBuildHook()
	}
	lib := stdcells.New(r.libVariant())
	if r.Gen != "" {
		return designs.ParseSpec(r.Gen, lib)
	}
	return verilog.Read(r.Verilog, lib, r.Top)
}

// normalize applies cross-field defaults that depend on the design choice.
func (r *JobRequest) normalize() {
	if designs.PreGrouped(r.Gen) {
		r.Options.ManualGroups = true
	}
	if r.Lib == "" {
		r.Lib = string(r.libVariant())
	}
}

// digest is the request's own address, the memo key in front of the
// result cache: a sha256 over cacheKeyVersion and every field the build
// and the cache key read — gen, verilog, top, lib and the canonical
// options — each length-prefixed, so no two distinct requests share a
// digest. Call it after normalize. The request-to-cache-key mapping is a
// pure function (designs.ParseSpec and verilog.Read are deterministic, as
// the golden digests pin), so a digest names one content address for good.
func (r *JobRequest) digest() (string, error) {
	canon, err := r.Options.Canonicalize()
	if err != nil {
		return "", err
	}
	oj, err := json.Marshal(canon)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, f := range []string{cacheKeyVersion, r.Gen, r.Verilog, r.Top, r.Lib, string(oj)} {
		fmt.Fprintf(h, "%d:", len(f))
		io.WriteString(h, f) //nolint:errcheck // hash writes never fail
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cacheKey is the content address of this request's result: a digest over
// the canonical netlist content hash and the canonicalized options. Two
// requests with byte-different but content-identical inputs (same design
// built twice, an upload re-serialized with reordered declarations) land on
// the same entry; any change that can alter the flow's output — netlist
// content, library variant, any canonical option — lands on a new one.
func cacheKey(d *netlist.Design, opts FlowOptions) (string, error) {
	canon, err := opts.Canonicalize()
	if err != nil {
		return "", err
	}
	oj, err := json.Marshal(canon)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n", cacheKeyVersion, d.ContentHash(), oj)
	return hex.EncodeToString(h.Sum(nil)), nil
}
