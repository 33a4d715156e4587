package core

// Mode selects a backend sub-strategy. Modes belong to a backend: the
// desync backend defines ModeMatched and ModeCompletion; a backend with a
// single strategy leaves the mode empty.
type Mode string

const (
	// ModeMatched is the desync backend's default: per-region matched delay
	// elements sized from the STA budgets (§3.2.5).
	ModeMatched Mode = "matched"
	// ModeCompletion replaces the matched elements with dual-rail completion
	// networks (§2.4.4): true data-dependent, average-case timing at ~2x
	// combinational area.
	ModeCompletion Mode = "cdet"
)

// Options configures one clocking-conversion run (the tool's command line,
// §3.2). The zero value selects the documented default for every knob;
// Canonicalize makes those defaults explicit and zeroes knobs that are
// inert under the selected backend and mode, producing the single
// canonical form shared by the flow itself, the job server's JSON mirror
// and its content-addressed cache key.
type Options struct {
	// Backend names the conversion backend that owns the Substitute, Size
	// and Generate stages: BackendDesync (the default) inserts the paper's
	// handshake control network; other backends register themselves via
	// RegisterBackend (internal/twophase registers "twophase").
	Backend string
	// Mode selects a sub-strategy of the backend. For the desync backend:
	// ModeMatched (default) or ModeCompletion. Backends without modes
	// reject any non-empty value.
	Mode Mode
	// Period is the original clock period in ns, used for the derived
	// clock constraints (Fig 4.2) and the request-path max delays.
	Period float64
	// Margin scales the matched delay elements (or the two-phase generator
	// ring) over the measured region budget; defaults to 1.15.
	Margin float64
	// MuxTaps builds 8-tap multiplexed delay elements selected by new
	// delsel[2:0] ports (the calibration knob of Fig 5.3). Desync only.
	MuxTaps bool
	// FalsePaths names nets the grouping and dependency analyses ignore
	// (§3.2.2 "False Paths").
	FalsePaths []string
	// ManualGroups keeps the Group fields already present on the instances
	// (e.g. from a two-level hierarchy import) instead of running the
	// automatic grouping.
	ManualGroups bool
	// SkipClean disables buffer/inverter-pair removal.
	SkipClean bool
	// StageCheck, when non-nil, runs after each stage's Validate boundary
	// with the stage name and whether the snapshot is mid-flow (undriven
	// latch-enable nets are legal). internal/vflow hooks the static lint
	// engine here so every stage is gated, not just import and export; an
	// error aborts the flow as a FlowError of that stage.
	StageCheck func(stage string, midFlow bool) error
	// Progress, when non-nil, is called with each Stage* constant as the
	// flow enters that stage — the same seams FlowError.Stage reports, in
	// Stages order (minus StageClean under SkipClean). The job server
	// streams these to clients; the callback runs on the flow's goroutine,
	// so it must be fast and must not call back into the design.
	Progress func(stage string)
}

// Canonicalize returns the options with every documented default explicit
// and every knob the selected backend and mode never read zeroed, or an
// error naming an unknown backend or mode. It is idempotent, and it is the
// only place defaulting happens: Convert canonicalizes on entry, and the
// job server canonicalizes the same way before hashing its cache key, so
// {} and {"margin":1.15} can never address different results.
func (o Options) Canonicalize() (Options, error) {
	if o.Backend == "" {
		o.Backend = BackendDesync
	}
	if o.Margin == 0 {
		o.Margin = 1.15
	}
	be, err := NewBackend(o.Backend)
	if err != nil {
		return o, err
	}
	return be.Canonicalize(o)
}
