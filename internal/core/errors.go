package core

import (
	"errors"
	"fmt"
)

// Flow stage names, in pipeline order. FlowError.Stage is always one of
// these, so callers (internal/vflow's fallbacks, tests) can switch on them
// without string guessing.
const (
	StageImport     = "import"
	StageClean      = "clean"
	StageGroup      = "group"
	StageSubstitute = "substitute"
	StageSize       = "size"
	StageGenerate   = "generate"
	StageExport     = "export"
	StageStatic     = "static"
	StageEquiv      = "equiv"
)

// Stages lists the in-flow pipeline stages in execution order — exactly the
// sequence Options.Progress observes on a full run (StageClean is skipped
// under SkipClean). StageStatic and StageEquiv are post-export gate stages
// run by internal/vflow after Convert returns, not by Convert itself.
var Stages = []string{
	StageImport, StageClean, StageGroup, StageSubstitute,
	StageSize, StageGenerate, StageExport,
}

// ErrNoRegions reports that grouping produced no desynchronization regions
// (no sequential logic outside the catch-all group 0); the caller may retry
// with a manual single-region assignment.
var ErrNoRegions = errors.New("no desynchronization regions")

// FlowError ties a failure to the desynchronization stage that produced it,
// so the command line can report where the pipeline broke and decide whether
// a degraded retry (single region, bumped margin) makes sense.
type FlowError struct {
	Stage  string // one of the Stage* constants
	Design string // top module name
	Detail string // optional human context (e.g. "post-stage validation")
	Err    error
}

func (e *FlowError) Error() string {
	msg := fmt.Sprintf("core: %s: stage %s", e.Design, e.Stage)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg + ": " + e.Err.Error()
}

func (e *FlowError) Unwrap() error { return e.Err }

// StageOf returns the flow stage recorded in err's FlowError, or "" when err
// carries none.
func StageOf(err error) string {
	var fe *FlowError
	if errors.As(err, &fe) {
		return fe.Stage
	}
	return ""
}

func flowErr(stage string, d string, detail string, err error) error {
	return &FlowError{Stage: stage, Design: d, Detail: detail, Err: err}
}
