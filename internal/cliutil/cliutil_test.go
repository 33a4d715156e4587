package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestSeedVarKeepsNameAndDefault(t *testing.T) {
	fs := newFS()
	var seed int64
	SeedVar(fs, &seed, "equiv-seed", 1, "PRNG seed for -equiv-xval traces")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if seed != 1 {
		t.Fatalf("default seed = %d, want 1", seed)
	}
	f := fs.Lookup("equiv-seed")
	if f == nil {
		t.Fatal("flag not registered under its historical name")
	}
	if !strings.Contains(f.Usage, "reproduce") {
		t.Fatalf("usage %q lacks the reproducibility suffix", f.Usage)
	}
	if err := fs.Parse([]string{"-equiv-seed", "77"}); err != nil {
		t.Fatal(err)
	}
	if seed != 77 {
		t.Fatalf("parsed seed = %d, want 77", seed)
	}
}

func TestRunDrainedCleanRun(t *testing.T) {
	interrupted, err := RunDrained(func(ctx context.Context) error { return nil })
	if err != nil || interrupted {
		t.Fatalf("clean run: interrupted=%v err=%v", interrupted, err)
	}
}

func TestRunDrainedOrdinaryFailure(t *testing.T) {
	boom := errors.New("boom")
	interrupted, err := RunDrained(func(ctx context.Context) error { return boom })
	if !errors.Is(err, boom) || interrupted {
		t.Fatalf("ordinary failure misclassified: interrupted=%v err=%v", interrupted, err)
	}
}

// TestRunDrainedSignalInterruption sends the process a real SIGTERM while fn
// is waiting on the drained context, the exact shape of a batch scheduler
// reclaiming the node mid-run.
func TestRunDrainedSignalInterruption(t *testing.T) {
	interrupted, err := RunDrained(func(ctx context.Context) error {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			return fmt.Errorf("kill: %w", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("SIGTERM never canceled the drained context")
		}
	})
	if !interrupted {
		t.Fatalf("SIGTERM drain not classified as interruption: err=%v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled out of a drained run, got %v", err)
	}
}

// TestRunDrainedWrappedCancellation: tools wrap the cancellation on the way
// out (flow errors, journal hints); classification must survive wrapping.
func TestRunDrainedWrappedCancellation(t *testing.T) {
	interrupted, err := RunDrained(func(ctx context.Context) error {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			return fmt.Errorf("kill: %w", err)
		}
		<-ctx.Done()
		return fmt.Errorf("stage size: %w", ctx.Err())
	})
	if !interrupted || err == nil {
		t.Fatalf("wrapped cancellation misclassified: interrupted=%v err=%v", interrupted, err)
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := Context()
	if err := ctx.Err(); err != nil {
		t.Fatalf("fresh context already dead: %v", err)
	}
	cancel()
	<-ctx.Done()
}
