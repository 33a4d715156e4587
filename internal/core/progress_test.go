package core

import (
	"context"
	"reflect"
	"testing"
)

// TestProgressReportsStagesInOrder pins the Progress callback to the Stages
// sequence: one call per stage, in pipeline order, at the same seams
// FlowError.Stage reports.
func TestProgressReportsStagesInOrder(t *testing.T) {
	d := buildPipelineRing(hs())
	var seen []string
	_, err := Convert(context.Background(), d, Options{
		Period:   3.0,
		Progress: func(stage string) { seen = append(seen, stage) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, Stages) {
		t.Fatalf("progress sequence %v, want %v", seen, Stages)
	}
}

// TestProgressSkipsCleanUnderSkipClean: the emitted sequence mirrors what
// actually ran.
func TestProgressSkipsCleanUnderSkipClean(t *testing.T) {
	d := buildPipelineRing(hs())
	var seen []string
	_, err := Convert(context.Background(), d, Options{
		Period:    3.0,
		SkipClean: true,
		Progress:  func(stage string) { seen = append(seen, stage) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{StageImport, StageGroup, StageSubstitute, StageSize, StageGenerate, StageExport}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("progress sequence %v, want %v", seen, want)
	}
}

// TestProgressStopsAtFailingStage: a canceled flow reports progress only up
// to the stage whose FlowError it returns.
func TestProgressStopsAtFailingStage(t *testing.T) {
	d := buildPipelineRing(hs())
	ctx, cancel := context.WithCancel(context.Background())
	var seen []string
	_, err := Convert(ctx, d, Options{
		Period: 3.0,
		Progress: func(stage string) {
			seen = append(seen, stage)
			if stage == StageSize {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("want a cancellation error")
	}
	stage := StageOf(err)
	if stage == "" {
		t.Fatalf("cancellation must surface as a staged FlowError, got %v", err)
	}
	last := seen[len(seen)-1]
	// The failure stage is the last one entered, or the next seam after it
	// (a cancellation between stages surfaces at the following boundary).
	next := ""
	for i, s := range Stages {
		if s == last && i+1 < len(Stages) {
			next = Stages[i+1]
		}
	}
	if stage != last && stage != next {
		t.Fatalf("failed at stage %s but progress last entered %s", stage, last)
	}
	for _, s := range seen[:len(seen)-1] {
		if s == StageGenerate || s == StageExport {
			t.Fatalf("progress ran past the cancelled stage: %v", seen)
		}
	}
}
