package faults_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"desync/internal/faults"
	"desync/internal/sim"
)

// TestDeriveSeedMixesIndex: per-chip randomization must not collapse onto
// the root seed — every index has to open an independent stream, or every
// chip in a sweep samples the same delay factors.
func TestDeriveSeedMixesIndex(t *testing.T) {
	seen := map[int64]int64{}
	for i := int64(0); i < 64; i++ {
		s := faults.DeriveSeed(5, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed(5, %d) == DeriveSeed(5, %d)", i, prev)
		}
		seen[s] = i
	}
	if faults.DeriveSeed(5, 3) != faults.DeriveSeed(5, 3) {
		t.Fatal("DeriveSeed is not a pure function")
	}
	c := dlxCampaign(t)
	a := sim.DelayFactorMap(c.M, faults.DeriveSeed(5, 0), 0.05, nil)
	b := sim.DelayFactorMap(c.M, faults.DeriveSeed(5, 1), 0.05, nil)
	same := 0
	for name, fa := range a {
		if b[name] == fa {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("indexes 0 and 1 drew identical delay-factor streams")
	}
}

// TestScenarioAtCorner: a control stuck-at fault must stay detected when
// the whole chip slides to the worst-corner scale with intra-die mismatch
// on top — the sweep's core soundness assumption (flow equivalence is delay
// independent, so the nominal golden stays a valid reference).
func TestScenarioAtCorner(t *testing.T) {
	c := dlxCampaign(t)
	list := c.ControlStuckFaults("mri")
	if len(list) == 0 {
		t.Fatal("no stuck faults enumerated")
	}
	chip := sim.DelayFactorMap(c.M, faults.DeriveSeed(11, 0), 0.09, nil)
	out, err := c.RunScenario(context.Background(), faults.Scenario{
		Fault: list[0], Scale: 2.5, DelayFactors: chip,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("stuck fault escaped at scale 2.5: %+v", out)
	}
}

// TestScenarioReproducible: the same fault at the same operating point must
// produce a byte-identical outcome — this is what lets a sweep replay any
// failed scenario standalone.
func TestScenarioReproducible(t *testing.T) {
	c := dlxCampaign(t)
	list := c.DelayFaults(40, 1)
	if len(list) == 0 {
		t.Fatal("no delay faults enumerated")
	}
	sc := faults.Scenario{Fault: list[0], Scale: 1.4}
	run := func() []byte {
		out, err := c.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("scenario not reproducible:\n%s\n%s", a, b)
	}
	if out, err := c.RunScenario(context.Background(), sc); err != nil || !out.Detected || out.Period <= 0 {
		t.Fatalf("under-margin delay fault at scale 1.4: detected=%v period=%v err=%v",
			out.Detected, out.Period, err)
	}
}

// TestScenarioInterrupt: a scenario deadline surfaces as the interrupt's
// error, never as a fault classification.
func TestScenarioInterrupt(t *testing.T) {
	c := dlxCampaign(t)
	list := c.ControlStuckFaults("mri")
	deadline := errors.New("scenario deadline")
	_, err := c.RunScenario(context.Background(), faults.Scenario{
		Fault:     list[0],
		Interrupt: func() error { return deadline },
	})
	if !errors.Is(err, deadline) {
		t.Fatalf("interrupt not surfaced: %v", err)
	}
}
