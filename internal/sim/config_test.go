package sim

import (
	"errors"
	"strings"
	"testing"

	"desync/internal/logic"
	"desync/internal/netlist"
)

// buildRingOsc wires an odd-inversion ring behind an enable gate: once en
// goes high the loop oscillates forever, generating an unbounded event
// stream — the shape of run the event budget and the Interrupt hook exist
// to bound.
func buildRingOsc(t *testing.T) *netlist.Module {
	t.Helper()
	lib := hs()
	m := netlist.NewModule("ring")
	m.AddPort("en", netlist.In)
	loop := m.AddNet("loop")
	fb := m.AddNet("fb")
	g := m.AddInst("g", lib.MustCell("NAND2X1"))
	m.MustConnect(g, "A", m.Net("en"))
	m.MustConnect(g, "B", fb)
	m.MustConnect(g, "Z", loop)
	inv := m.AddInst("inv", lib.MustCell("BUFX2"))
	m.MustConnect(inv, "A", loop)
	m.MustConnect(inv, "Z", fb)
	return m
}

// TestMaxEventsTightened: a unit test can shrink the oscillation budget far
// below DefaultMaxEvents through the config instead of waiting out 50M
// events.
func TestMaxEventsTightened(t *testing.T) {
	m := buildRingOsc(t)
	s, err := New(m, Config{Corner: netlist.Worst, MaxEvents: 200})
	if err != nil {
		t.Fatal(err)
	}
	// en=0 forces the NAND high, flushing the X out of the loop; raising en
	// then lets it oscillate.
	s.Drive("en", logic.L, 0)
	s.Drive("en", logic.H, 1)
	err = s.Run(1e9)
	if err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("tightened MaxEvents did not trip: %v", err)
	}
}

// TestInterruptHookAborts: the Interrupt hook is polled on the event stream
// and its error aborts Run — the mechanism scenario sweeps use for
// wall-clock deadlines and context cancellation inside a single run.
func TestInterruptHookAborts(t *testing.T) {
	m := buildRingOsc(t)
	stop := errors.New("deadline exceeded")
	polls := 0
	s, err := New(m, Config{
		Corner: netlist.Worst,
		Interrupt: func() error {
			polls++
			if polls >= 3 {
				return stop
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Drive("en", logic.L, 0)
	s.Drive("en", logic.H, 1)
	err = s.Run(1e9)
	if !errors.Is(err, stop) {
		t.Fatalf("interrupt error not surfaced: %v", err)
	}
	if polls != 3 {
		t.Fatalf("interrupt polled %d times, want 3", polls)
	}
	if s.Events() > 3*interruptEvery {
		t.Fatalf("run kept going after interrupt: %d events", s.Events())
	}
}

// TestWatchdogReportBounded: a run records every diagnostic up to the
// per-run bound, and no more past it.
func TestWatchdogReportBounded(t *testing.T) {
	lib := hs()
	m := netlist.NewModule("m")
	m.AddPort("g", netlist.In)
	m.AddPort("d", netlist.In)
	q := m.AddNet("q")
	la := m.AddInst("la", lib.MustCell("LATQX1"))
	m.MustConnect(la, "G", m.Net("g"))
	m.MustConnect(la, "D", m.Net("d"))
	m.MustConnect(la, "Q", q)

	run := func(closes int) []Diagnostic {
		s, err := New(m, Config{Corner: netlist.Worst})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Watch(WatchdogConfig{XCaptureAfter: 0}); err != nil {
			t.Fatal(err)
		}
		// Repeatedly close the latch while D is still X: every closing edge
		// captures X past the boot threshold.
		for i := 0; i < closes; i++ {
			s.Drive("g", logic.H, float64(2*i+1))
			s.Drive("g", logic.L, float64(2*i+2))
		}
		if err := s.Run(float64(2*closes + 10)); err != nil {
			t.Fatal(err)
		}
		return s.Diagnostics()
	}
	if got := run(8); len(got) != 8 {
		t.Fatalf("8 X captures recorded %d diagnostics, want all 8", len(got))
	}
	if got := run(maxDiags + 6); len(got) != maxDiags {
		t.Fatalf("%d X captures recorded %d diagnostics, want the bound %d", maxDiags+6, len(got), maxDiags)
	}
}
