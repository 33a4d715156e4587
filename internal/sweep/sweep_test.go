package sweep_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desync/internal/expt"
	"desync/internal/faults"
	"desync/internal/sim"
	"desync/internal/sweep"
)

// The DLX flow is expensive; every sweep test shares one desynchronized
// design and one campaign (sweep scenarios never mutate either).
var (
	once     sync.Once
	flow     *expt.Flow
	campaign *faults.Campaign
	buildErr error
)

func dlxCampaign(t *testing.T) *faults.Campaign {
	t.Helper()
	once.Do(func() {
		flow, buildErr = expt.RunFlow("dlx", expt.FlowConfig{})
		if buildErr != nil {
			return
		}
		campaign, buildErr = expt.NewCampaign(context.Background(), flow, 6)
	})
	if buildErr != nil {
		t.Fatalf("building DLX campaign: %v", buildErr)
	}
	return campaign
}

// TestSweepSurfaceDLX runs a small corner × chip × fault product on the
// DLX and checks the surface's shape: every cell completes, the per-corner
// tallies match the space, control stuck-ats stay detected at the worst
// corner with mismatch on top, and the period quantiles are populated.
func TestSweepSurfaceDLX(t *testing.T) {
	c := dlxCampaign(t)
	fs := c.ControlStuckFaults("mri")
	if len(fs) == 0 {
		t.Fatal("no faults enumerated")
	}
	rep, err := sweep.Run(context.Background(), c, sweep.Config{
		Space: sweep.Space{Corners: []float64{1, 2.5}, Chips: 2, Sigma: 0.05, Faults: fs},
		Seed:  17,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * len(fs)
	if rep.Total != want || rep.Done != want || rep.FailureCount != 0 {
		t.Fatalf("total %d done %d failures %d, want %d clean", rep.Total, rep.Done, rep.FailureCount, want)
	}
	for _, cs := range rep.CornerStats {
		if cs.Injected != 2*len(fs) {
			t.Fatalf("corner %d injected %d, want %d", cs.Corner, cs.Injected, 2*len(fs))
		}
		if cs.Detected != cs.Injected {
			t.Errorf("corner %d (scale %.2f): %d/%d stuck faults detected\n%s",
				cs.Corner, cs.Scale, cs.Detected, cs.Injected, rep.Render())
		}
		if cs.RateLo <= 0 || cs.RateHi != 1 {
			t.Errorf("corner %d interval [%v,%v]", cs.Corner, cs.RateLo, cs.RateHi)
		}
		if cs.PeriodN == 0 || cs.PeriodP50 <= 0 || cs.PeriodP99 < cs.PeriodP50 {
			t.Errorf("corner %d period quantiles n=%d p50=%v p99=%v",
				cs.Corner, cs.PeriodN, cs.PeriodP50, cs.PeriodP99)
		}
	}
}

// sweepJSON renders a report to bytes for byte-identity comparison.
func sweepJSON(t *testing.T, rep *sweep.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepCrashResumeDLX is the durability acceptance test: a sweep
// killed mid-run after at least one checkpointed record, resumed from its
// journal at a different GOMAXPROCS, must produce the same final report
// byte for byte as an uninterrupted serial run.
func TestSweepCrashResumeDLX(t *testing.T) {
	c := dlxCampaign(t)
	fs := c.ControlStuckFaults("mri", "sai")
	space := sweep.Space{Corners: []float64{1, 1.6}, Chips: 1, Faults: fs}
	total := space.Size()
	if total < 10 {
		t.Fatalf("space too small for the test: %d", total)
	}

	// Reference: uninterrupted, serial, no journal.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, err := sweep.Run(context.Background(), c, sweep.Config{Space: space, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	refJSON := sweepJSON(t, ref)

	// Interrupted run: cancel (the in-process stand-in for SIGTERM — the
	// CLI routes the signal into this same context) once a third of the
	// sweep is journaled, at GOMAXPROCS 4.
	runtime.GOMAXPROCS(4)
	journal := filepath.Join(t.TempDir(), "dlx.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := total / 3
	if cut < 1 {
		cut = 1
	}
	_, err = sweep.Run(ctx, c, sweep.Config{
		Space: space, Seed: 3,
		Checkpoint: journal, FsyncEvery: 2,
		Progress: func(done, _ int) {
			if done >= cut {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := sweep.ReadJournal(data)
	if err != nil {
		t.Fatalf("journal after cancellation: %v", err)
	}
	if len(recs) < cut || len(recs) >= total {
		t.Fatalf("journal holds %d records after cancelling at %d of %d", len(recs), cut, total)
	}

	// Resume at GOMAXPROCS 4: replay the prefix, compute the tail.
	res, err := sweep.Run(context.Background(), c, sweep.Config{
		Space: space, Seed: 3,
		Checkpoint: journal, Resume: true, FsyncEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepJSON(t, res); !bytes.Equal(refJSON, got) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", refJSON, got)
	}

	// The journal now covers the whole space; resuming again replays
	// everything and computes nothing — and still matches.
	runtime.GOMAXPROCS(1)
	again, err := sweep.Run(context.Background(), c, sweep.Config{
		Space: space, Seed: 3,
		Checkpoint: journal, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepJSON(t, again); !bytes.Equal(refJSON, got) {
		t.Fatal("replay-only resume diverged")
	}
}

// panickingCampaign builds a second DLX campaign whose stimulus behaves
// for the golden run, then panics on every scenario after it — the way a
// latent simulator bug surfaces in cell 7341 of a big sweep.
func panickingCampaign(t *testing.T) *faults.Campaign {
	t.Helper()
	c := dlxCampaign(t) // ensure the shared flow exists
	_ = c
	var calls atomic.Int32
	drv := faults.NewDriver(flow.Design.Top, flow.Result.Reset, 0, nil)
	stim := func(s *sim.Simulator) error {
		if calls.Add(1) > 1 {
			panic("injected scenario panic")
		}
		return drv.Start(s)
	}
	pc, err := faults.NewCampaign(context.Background(), flow.Design.Top, stim, flow.Period, 6)
	if err != nil {
		t.Fatalf("building panicking campaign: %v", err)
	}
	return pc
}

// TestSweepQuarantinesPanics: panicking scenarios become records; the
// sweep finishes every cell and reports the failures.
func TestSweepQuarantinesPanics(t *testing.T) {
	pc := panickingCampaign(t)
	fs := pc.ControlStuckFaults("mri")[:2]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rep, err := sweep.Run(context.Background(), pc, sweep.Config{
		Space: sweep.Space{Corners: []float64{1}, Chips: 2, Sigma: 0.05, Faults: fs},
		Seed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 4 || rep.FailureCount != 4 {
		t.Fatalf("done %d failures %d, want 4 quarantined of 4\n%s", rep.Done, rep.FailureCount, rep.Render())
	}
	for _, f := range rep.Failures {
		if f.Kind != sweep.KindPanic {
			t.Fatalf("failure %d has kind %q, want panic", f.Index, f.Kind)
		}
	}
}

// TestSweepMaxFailuresStops: the failure budget turns a pathological sweep
// into a graceful early stop with an exact journaled prefix.
func TestSweepMaxFailuresStops(t *testing.T) {
	pc := panickingCampaign(t)
	fs := pc.ControlStuckFaults("mri")
	journal := filepath.Join(t.TempDir(), "stop.journal")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	rep, err := sweep.Run(context.Background(), pc, sweep.Config{
		Space: sweep.Space{Corners: []float64{1, 2}, Chips: 1, Faults: fs},
		Seed:  5, MaxFailures: 3, Checkpoint: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.EarlyStopped || rep.Done != 3 || rep.FailureCount != 3 {
		t.Fatalf("early stop: stopped=%v done=%d failures=%d, want 3", rep.EarlyStopped, rep.Done, rep.FailureCount)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if _, recs, _, err := sweep.ReadJournal(data); err != nil || len(recs) != 3 {
		t.Fatalf("journal holds %d records (%v), want the exact stopped prefix of 3", len(recs), err)
	}
}

// TestSweepScenarioTimeout: a wall-clock deadline quarantines the slow
// scenario through the simulator's interrupt hook instead of hanging the
// sweep.
func TestSweepScenarioTimeout(t *testing.T) {
	c := dlxCampaign(t)
	fs := c.ControlStuckFaults("mri")[:1]
	rep, err := sweep.Run(context.Background(), c, sweep.Config{
		Space:           sweep.Space{Corners: []float64{1}, Chips: 1, Faults: fs},
		Seed:            5,
		ScenarioTimeout: time.Nanosecond, // everything is too slow
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 1 || rep.FailureCount != 1 || rep.Failures[0].Kind != sweep.KindTimeout {
		t.Fatalf("timeout not quarantined: %+v", rep.Failures)
	}
	if rep.CornerStats[0].Timeouts != 1 {
		t.Fatalf("corner stats missed the timeout: %+v", rep.CornerStats[0])
	}
}
