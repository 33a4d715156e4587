package faults_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"desync/internal/expt"
	"desync/internal/faults"
	"desync/internal/logic"
)

// The DLX flow is expensive to build; every test shares one desynchronized
// design and one campaign (campaign runs never mutate the module — delay
// faults travel as per-simulator factor snapshots).
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
		campaign, buildErr = expt.NewCampaign(context.Background(), flow, 10)
	})
	if buildErr != nil {
		t.Fatalf("building DLX campaign: %v", buildErr)
	}
	return campaign
}

// TestGoldenRunClean is the baseline acceptance check: with every watchdog
// armed, the unfaulted desynchronized DLX produces zero diagnostics (this
// is asserted inside NewCampaign) and a live handshake network.
func TestGoldenRunClean(t *testing.T) {
	c := dlxCampaign(t)
	if len(c.Regions()) < 2 {
		t.Fatalf("expected a multi-region DLX, got regions %v", c.Regions())
	}
	if c.GoldenEvents() == 0 {
		t.Fatal("golden run processed no events")
	}
}

// TestDelayFaultsDetected injects under-margin delay faults (40x on the two
// most active datapath gates of every region) and requires every one to be
// caught.
func TestDelayFaultsDetected(t *testing.T) {
	c := dlxCampaign(t)
	list := c.DelayFaults(40, 2)
	if len(list) < len(c.Regions()) {
		t.Fatalf("enumerated only %d delay faults for %d regions", len(list), len(c.Regions()))
	}
	rep, err := c.Run(context.Background(), list)
	if err != nil {
		t.Fatal(err)
	}
	if d, n := rep.Detected(faults.ClassDelay); d != n {
		t.Errorf("delay faults: %d/%d detected\n%s", d, n, rep.Render())
	}
}

// TestControlStuckFaultsDetected pins each region's request, acknowledge
// and latch-enable nets to both rails; the handshake network must visibly
// stall or corrupt state for every one.
func TestControlStuckFaultsDetected(t *testing.T) {
	c := dlxCampaign(t)
	list := c.ControlStuckFaults()
	if len(list) < 4*len(c.Regions()) {
		t.Fatalf("enumerated only %d stuck faults for %d regions", len(list), len(c.Regions()))
	}
	rep, err := c.Run(context.Background(), list)
	if err != nil {
		t.Fatal(err)
	}
	if d, n := rep.Detected(faults.ClassStuckAt); d != n {
		t.Errorf("stuck-at faults: %d/%d detected\n%s", d, n, rep.Render())
	}
	// Stuck handshakes should mostly be caught as stalls, not only as data
	// corruption: check at least one liveness/watchdog detection exists.
	stall := 0
	for _, o := range rep.Outcomes {
		if o.By == faults.ByLiveness || o.By == faults.ByWatchdog {
			stall++
		}
	}
	if stall == 0 {
		t.Errorf("no stuck-at fault classified as a stall:\n%s", rep.Render())
	}
}

// TestCampaignReportReproducible runs the same campaign twice and requires
// byte-identical JSON. Stuck handshakes deadlock the network, and the
// quiescence watchdog then names the stalest handshake net; several nets
// often stop at the same instant, so the name must not depend on map
// iteration order.
func TestCampaignReportReproducible(t *testing.T) {
	c := dlxCampaign(t)
	list := c.ControlStuckFaults()
	render := func() []byte {
		rep, err := c.Run(context.Background(), list)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatalf("two runs of one campaign differ:\n%s\nvs\n%s", a, b)
	}
}

// TestGlitchFaultsClassified runs the pulse class; glitches may escape (a
// pulse can be absorbed), so this asserts classification, not detection.
func TestGlitchFaultsClassified(t *testing.T) {
	c := dlxCampaign(t)
	list := c.GlitchFaults(flow.Period*5, 0.3)
	if len(list) == 0 {
		t.Fatal("no glitch faults enumerated")
	}
	rep, err := c.Run(context.Background(), list[:4])
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		if o.Detected && o.By == faults.NotDetected {
			t.Errorf("detected outcome without a mechanism: %+v", o)
		}
	}
	if s := rep.Render(); !strings.Contains(s, "glitch") {
		t.Errorf("report does not mention the glitch class:\n%s", s)
	}
}

// TestReportRendering exercises the aggregation arithmetic without any
// simulation.
func TestReportRendering(t *testing.T) {
	rep := &faults.Report{Outcomes: []faults.Outcome{
		{Fault: faults.Fault{Class: faults.ClassDelay, Inst: "u1", Factor: 40}, Detected: true, By: faults.ByFlowMismatch},
		{Fault: faults.Fault{Class: faults.ClassDelay, Inst: "u2", Factor: 40}},
		{Fault: faults.Fault{Class: faults.ClassStuckAt, Net: "G1_mri", Value: logic.H}, Detected: true, By: faults.ByWatchdog},
	}}
	if got := rep.DetectionRate(faults.ClassDelay); got != 0.5 {
		t.Errorf("delay rate = %v, want 0.5", got)
	}
	if got := rep.DetectionRate(""); got != 2.0/3.0 {
		t.Errorf("overall rate = %v, want 2/3", got)
	}
	if esc := rep.Escaped(); len(esc) != 1 || esc[0].Inst != "u2" {
		t.Errorf("escaped = %v", esc)
	}
	s := rep.Render()
	for _, want := range []string{"stuck-at", "ESCAPED: delay u2 x40", "flow-mismatch=1", "watchdog=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
