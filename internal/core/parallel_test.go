package core

import (
	"context"
	"errors"
	"testing"
)

// TestDesynchronizeCancellation: a context canceled before the flow starts
// aborts at the import stage as a FlowError wrapping context.Canceled, so
// callers can distinguish "the user hit Ctrl-C" from a broken design.
func TestDesynchronizeCancellation(t *testing.T) {
	d := buildPipelineRing(hs())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Convert(ctx, d, Options{Period: 3.0})
	if res != nil {
		t.Fatalf("canceled flow returned a result: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if got := StageOf(err); got != StageImport {
		t.Fatalf("stage = %q, want %q", got, StageImport)
	}
}

// TestECOCalibrateCancellation: the repair path observes cancellation
// between regions.
func TestECOCalibrateCancellation(t *testing.T) {
	d := buildPipelineRing(hs())
	res, err := Convert(context.Background(), d, Options{Period: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ECOCalibrate(ctx, d, res, 1.15, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
