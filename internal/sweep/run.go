package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"desync/internal/faults"
	"desync/internal/par"
	"desync/internal/variability"
)

// Config drives one sweep.
type Config struct {
	// Space is the scenario cross-product (corners × chips × faults).
	Space Space
	// Seed roots the Monte Carlo chip draws: chip k's per-instance factors
	// come from DeriveSeed(Seed, k), so the same (Seed, Space) enumerates
	// the same chips in any run — resumed, re-sharded or replayed.
	Seed int64
	// ScenarioTimeout quarantines any single scenario that runs longer than
	// this wall-clock budget (0 = no deadline). Timeouts are recorded, not
	// fatal — but they are machine-speed dependent, so byte-identical
	// replays are only guaranteed for sweeps where no deadline fires.
	ScenarioTimeout time.Duration
	// MaxFailures stops the sweep gracefully once this many scenarios have
	// been quarantined (0 = no limit). The report is flagged EarlyStopped
	// and covers exactly the journaled prefix.
	MaxFailures int
	// Checkpoint is the journal path ("" = no checkpointing).
	Checkpoint string
	// Resume replays an existing journal at Checkpoint and continues after
	// its clean prefix instead of starting over.
	Resume bool
	// FsyncEvery batches journal fsyncs (records per sync; 0 = every
	// record). A crash can lose at most this many trailing records.
	FsyncEvery int
	// Progress, when non-nil, is called after every folded scenario.
	Progress func(done, total int)
}

// Report is the sweep's aggregate result — the robustness surface.
type Report struct {
	Design  string    `json:"design"`
	Seed    int64     `json:"seed"`
	Corners []float64 `json:"corners"`
	Chips   int       `json:"chips"`
	Sigma   float64   `json:"sigma"`
	Faults  int       `json:"faults"`

	Total int `json:"total"`
	Done  int `json:"done"`
	// EarlyStopped marks a MaxFailures cutoff. The report deliberately does
	// not say whether the run was resumed: a resumed sweep must serialize
	// byte-identically to an uninterrupted one.
	EarlyStopped bool `json:"early_stopped,omitempty"`

	Injected int `json:"injected"`
	Detected int `json:"detected"`

	CornerStats []*CornerStats `json:"corner_stats"`

	FailureCount int          `json:"failure_count"`
	Failures     []FailureRef `json:"failures,omitempty"`
}

// errEnough is the fold's graceful MaxFailures cutoff.
var errEnough = errors.New("sweep: failure budget exhausted")

// errDeadline marks a scenario that blew its wall-clock budget; it travels
// out of the simulator through the interrupt hook.
var errDeadline = errors.New("sweep: scenario deadline exceeded")

// Run sweeps the whole space against the campaign. Scenarios compute on
// the par workers; results fold in strict scenario order into the
// aggregates and (when configured) the checkpoint journal, so the report
// is byte-identical at any worker count and a resumed run converges to the
// same bytes as an uninterrupted one. A cancelled context aborts with
// ctx.Err() after the journal's clean prefix is durable; scenarios that
// panic, time out or error are quarantined as records and never kill the
// sweep.
func Run(ctx context.Context, c *faults.Campaign, cfg Config) (*Report, error) {
	space := cfg.Space.normalize()
	if len(space.Faults) == 0 {
		return nil, fmt.Errorf("sweep: empty fault matrix")
	}
	total := space.Size()

	// Chip draws: one per-instance intra-die factor map per chip
	// (variability's Normal(1, σ) mismatch model), shared read-only by every
	// corner — a chip's mismatch pattern is silicon; the corner is
	// environment. Chip k reproduces from DeriveSeed(Seed, k) alone. Chip 0
	// of a Sigma=0 sweep is the nominal die.
	chips := make([]map[string]float64, space.Chips)
	if space.Sigma > 0 {
		for k := range chips {
			rng := rand.New(rand.NewSource(faults.DeriveSeed(cfg.Seed, int64(k))))
			chips[k] = variability.IntraDieFactors(c.M, space.Sigma, rng)
		}
	}

	a := newAgg(space)
	rep := &Report{
		Design: c.M.Name, Seed: cfg.Seed, Corners: space.Corners,
		Chips: space.Chips, Sigma: space.Sigma, Faults: len(space.Faults),
		Total: total,
	}

	var jn *Journal
	start := 0
	if cfg.Checkpoint != "" {
		hdr := Header{
			Design: c.M.Name, Seed: cfg.Seed, Corners: space.Corners,
			Chips: space.Chips, Sigma: space.Sigma,
			FaultsHash: HashFaults(space.Faults), Total: total,
		}
		var err error
		if cfg.Resume {
			var prefix []Record
			jn, prefix, err = ResumeJournal(cfg.Checkpoint, hdr, cfg.FsyncEvery)
			if err != nil {
				return nil, err
			}
			for _, rec := range prefix {
				a.add(rec)
			}
			start = len(prefix)
		} else {
			jn, err = CreateJournal(cfg.Checkpoint, hdr, cfg.FsyncEvery)
			if err != nil {
				return nil, err
			}
		}
		defer jn.Close()
	}

	err := par.Fold(ctx, start, total,
		func(ctx context.Context, i int) (Record, error) {
			return runOne(ctx, c, cfg, space, chips, i)
		},
		func(i int, rec Record) error {
			if jn != nil {
				if err := jn.Append(rec); err != nil {
					return fmt.Errorf("sweep: journal: %w", err)
				}
			}
			a.add(rec)
			if cfg.Progress != nil {
				cfg.Progress(a.done, total)
			}
			if cfg.MaxFailures > 0 && a.failureCount >= cfg.MaxFailures {
				return errEnough
			}
			return nil
		})
	if errors.Is(err, errEnough) {
		rep.EarlyStopped = true
		err = nil
	}
	if err != nil {
		return nil, err
	}
	if jn != nil {
		if cerr := jn.Close(); cerr != nil {
			return nil, fmt.Errorf("sweep: journal: %w", cerr)
		}
		jn = nil
	}

	rep.Done = a.done
	rep.Injected, rep.Detected = a.injected, a.detected
	rep.FailureCount = a.failureCount
	rep.Failures = a.failures
	for _, cs := range a.corners {
		cs.finalize()
		rep.CornerStats = append(rep.CornerStats, cs)
	}
	return rep, nil
}

// runOne computes one scenario: decode the cell, arm the wall-clock
// deadline, run quarantined, and classify the error. Only a context
// cancellation escapes as an error — everything else becomes a Record.
func runOne(ctx context.Context, c *faults.Campaign, cfg Config, space Space, chips []map[string]float64, i int) (Record, error) {
	corner, chip, fault := space.Decode(i)
	rec := Record{Index: i, Corner: corner, Chip: chip, Fault: fault}

	began := time.Now()
	interrupt := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if cfg.ScenarioTimeout > 0 && time.Since(began) > cfg.ScenarioTimeout {
			return errDeadline
		}
		return nil
	}
	out, err := runQuarantined(ctx, c, faults.Scenario{
		Fault:        space.Faults[fault],
		Scale:        space.Corners[corner],
		DelayFactors: chips[chip],
		Interrupt:    interrupt,
	})
	switch {
	case err == nil:
		rec.Outcome = &out
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return rec, err // sweep abort, not a scenario failure
	case errors.Is(err, errDeadline):
		rec.Failure = &ScenarioError{Kind: KindTimeout, Msg: err.Error()}
	default:
		var se *ScenarioError
		if errors.As(err, &se) {
			rec.Failure = se
		} else {
			rec.Failure = &ScenarioError{Kind: KindError, Msg: err.Error()}
		}
	}
	return rec, nil
}

// runQuarantined is the sweep's only recover boundary: a panicking
// scenario — a simulator bug tripped by one cell of a 10^4-scenario matrix
// — must come back as a quarantined record, not take down the hours of
// sweep around it. The repolint RL-RECOVER rule pins recover() to this
// function; widening the boundary needs a lint allowlist change.
func runQuarantined(ctx context.Context, c *faults.Campaign, sc faults.Scenario) (out faults.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &ScenarioError{Kind: KindPanic, Msg: fmt.Sprint(r)}
		}
	}()
	return c.RunScenario(ctx, sc)
}

// WriteJSON renders the report as indented JSON — deterministic, and the
// byte stream the resume tests diff.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Render formats the robustness surface as a text table: one row per
// corner with detection rate, Wilson interval and period quantiles, then
// the quarantine summary.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario sweep %s: %d scenarios (%d corners x %d chips x %d faults), %d done",
		r.Design, r.Total, len(r.Corners), r.Chips, r.Faults, r.Done)
	if r.EarlyStopped {
		sb.WriteString(" [stopped: failure budget]")
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "  %-6s %6s %9s %9s %7s %15s %8s %8s %8s\n",
		"corner", "scale", "injected", "detected", "rate", "95% CI", "p50", "p90", "p99")
	for _, cs := range r.CornerStats {
		if cs.Injected == 0 && cs.Timeouts+cs.Panics+cs.Errors == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-6d %6.2f %9d %9d %6.1f%% [%5.1f%%,%5.1f%%] %8.3f %8.3f %8.3f\n",
			cs.Corner, cs.Scale, cs.Injected, cs.Detected, 100*cs.Rate,
			100*cs.RateLo, 100*cs.RateHi, cs.PeriodP50, cs.PeriodP90, cs.PeriodP99)
	}
	if r.FailureCount > 0 {
		fmt.Fprintf(&sb, "  quarantined: %d", r.FailureCount)
		for _, f := range r.Failures {
			fmt.Fprintf(&sb, "\n    #%d (corner %d chip %d fault %d) %s: %s",
				f.Index, f.Corner, f.Chip, f.Fault, f.Kind, f.Msg)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
