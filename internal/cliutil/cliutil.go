// Package cliutil holds the flag and lifecycle conventions shared by the
// flow's command-line tools. Seed flags keep their historical per-tool
// names and defaults (drequiv -seed 1, experiments -seed 5, drdesync
// -equiv-seed 1) but are registered through SeedVar so the reproducibility
// wording stays uniform.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// SeedVar registers a PRNG seed flag under the tool's historical name and
// default, with a uniform reproducibility suffix on the usage string.
func SeedVar(fs *flag.FlagSet, p *int64, name string, def int64, usage string) {
	fs.Int64Var(p, name, def, fmt.Sprintf("%s (recorded so failures reproduce)", usage))
}

// DurationVar registers a duration flag (Go syntax: 30s, 2m) with a
// uniform "0 disables" suffix on the usage string — the wall-clock knobs
// (scenario deadlines, watchdog budgets) all read the same way.
func DurationVar(fs *flag.FlagSet, p *time.Duration, name string, def time.Duration, usage string) {
	fs.DurationVar(p, name, def, fmt.Sprintf("%s (0 disables)", usage))
}

// Context returns the root context of a CLI run: canceled on the first
// interrupt (Ctrl-C) or SIGTERM (a batch scheduler reclaiming the node),
// so the parallel kernels drain their workers and the tool exits through
// its normal error path — checkpoint journals keep a clean, resumable
// prefix — instead of being killed mid-write. A second signal falls back
// to the default behavior.
func Context() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// RunDrained is the shared drain lifecycle of every long-running tool
// (drdesync, drsweep, drserve): it runs fn under the Context signal context
// and classifies the outcome. interrupted is true when fn failed *because*
// the first Ctrl-C/SIGTERM canceled the context — the tool drained and
// stopped where it was told to — so mains can print a resume hint or exit
// quietly instead of reporting a spurious failure. A server that finishes
// its drain cleanly returns nil and is simply not interrupted; a second
// signal falls back to the runtime's default kill.
func RunDrained(fn func(ctx context.Context) error) (interrupted bool, err error) {
	ctx, cancel := Context()
	defer cancel()
	err = fn(ctx)
	interrupted = ctx.Err() != nil && err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	return interrupted, err
}
