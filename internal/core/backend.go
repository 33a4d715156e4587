package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// BackendDesync is the name of the built-in desynchronization backend: the
// paper's handshake control network replaces the clock.
const BackendDesync = "desync"

// BackendTwoPhase is the name under which internal/twophase registers the
// two-phase non-overlapping clocking backend. The constant lives here so
// drivers can branch on Result.Backend without importing the backend
// package; the implementation stays in internal/twophase.
const BackendTwoPhase = "twophase"

// Backend is one clock-replacement strategy plugged into the shared stage
// skeleton. The skeleton (Convert) owns Import, Clean, Group and Export —
// flattening, false paths, the single-clock check, logic cleaning, region
// creation, the final netlist checks — plus the Validate/StageCheck/
// Progress/cancellation discipline at every boundary; a backend owns only
// what varies between strategies: what replaces the flip-flops' clock
// (Substitute), how the replacement is sized from the per-region STA
// budgets (Size), what network is generated to drive the latches plus the
// SDC constraints that make it safe (Generate), and the independent
// structural cross-check of that network (Verify).
//
// Backend methods return plain errors; the skeleton wraps them into staged
// FlowErrors, so FlowError minting stays in one place (repolint RL-BACKEND
// pins this). Methods must observe ctx inside long-running kernels; the
// skeleton checks it at every stage boundary.
type Backend interface {
	// Name returns the registry name, stable across releases: it is part
	// of the job server's cache key and the Result record.
	Name() string
	// Canonicalize applies backend-specific defaulting and zeroes the
	// knobs this backend never reads, or rejects an unknown Mode. The
	// shared knobs (Backend, Margin) are already canonical when it runs.
	Canonicalize(o Options) (Options, error)
	// Substitute replaces the clocked flip-flops with backend-specific
	// storage (both current backends share the master/slave latch
	// substitution) and records the outcome on f.Res.
	Substitute(ctx context.Context, f *Flow) error
	// Size computes the replacement network's timing parameters from the
	// per-region STA budgets.
	Size(ctx context.Context, f *Flow) error
	// Generate inserts the clock-replacement network and produces the
	// backend constraints (f.Res.Constraints).
	Generate(ctx context.Context, f *Flow) error
	// Verify structurally cross-checks the generated network against what
	// the netlist actually contains, independently of flow state; it runs
	// inside the Export stage, before the final validation.
	Verify(ctx context.Context, f *Flow) error
}

var (
	backendMu  sync.RWMutex
	backendReg = map[string]Backend{}
)

// RegisterBackend makes a backend available to Convert under its Name.
// Backends register from an init function (the desync backend here, the
// two-phase backend in internal/twophase); a duplicate name is a wiring
// bug and is reported on first use via NewBackend.
func RegisterBackend(b Backend) {
	backendMu.Lock()
	defer backendMu.Unlock()
	backendReg[b.Name()] = b
}

// NewBackend resolves a registered backend by name.
func NewBackend(name string) (Backend, error) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	if b, ok := backendReg[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("unknown backend %q (registered: %v)", name, backendNamesLocked())
}

// BackendNames lists the registered backends, sorted — what -backend and
// the job server's schema validation advertise.
func BackendNames() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	return backendNamesLocked()
}

func backendNamesLocked() []string {
	names := make([]string, 0, len(backendReg))
	for name := range backendReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
