package faults_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"desync/internal/expt"
)

// TestCampaignParallelDeterministic is the campaign half of the parallel
// determinism contract: the same fault list run at GOMAXPROCS 1 and 4 must
// produce byte-identical JSON reports — every outcome classified the same
// way, in fault-list order, regardless of which worker simulated it.
func TestCampaignParallelDeterministic(t *testing.T) {
	c := dlxCampaign(t)
	list := c.DelayFaults(40, 1)
	list = append(list, c.ControlStuckFaults()[:6]...)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep1, err := c.Run(context.Background(), list)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	rep4, err := c.Run(context.Background(), list)
	if err != nil {
		t.Fatal(err)
	}
	var buf1, buf4 bytes.Buffer
	if err := rep1.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := rep4.WriteJSON(&buf4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf4.Bytes()) {
		t.Fatalf("campaign report depends on the worker count:\nGOMAXPROCS 1:\n%s\nGOMAXPROCS 4:\n%s",
			buf1.String(), buf4.String())
	}
	if len(rep1.Outcomes) != len(list) {
		t.Fatalf("report has %d outcomes for %d faults", len(rep1.Outcomes), len(list))
	}
}

// TestCampaignCancellation: a canceled context stops both campaign
// construction (before the golden run) and an in-flight Run.
func TestCampaignCancellation(t *testing.T) {
	c := dlxCampaign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := expt.NewCampaign(ctx, flow, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewCampaign err = %v, want context.Canceled", err)
	}
	list := c.DelayFaults(40, 1)
	if _, err := c.Run(ctx, list); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
}
