package equiv_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"desync/internal/ctrlnet"
	"desync/internal/equiv"
	"desync/internal/expt"
	"desync/internal/netlist"
)

var update = flag.Bool("update", false, "rewrite the golden counterexample traces")

// The known-bad fixtures: each mutation models a classic controller-network
// construction bug, and each must be caught purely formally with a concrete
// counterexample trace that the simulator then confirms dynamically. A nil
// confirm means the default: Replay forces the counterexample interleaving
// and requires the control-level watchdogs to corroborate it.
type fixture struct {
	name    string
	rules   []string // violation rules the mutation may legitimately trip
	mutate  func(t *testing.T, d *netlist.Design)
	confirm func(t *testing.T, f *expt.Flow, m *equiv.Model, tr *equiv.Trace) string
}

var fixtures = []fixture{
	{
		// The master acknowledge of region 2 is cut, so its predecessors'
		// acknowledge joins never complete: a dropped ack channel wedges
		// the whole ring.
		name:  "dropped-ack",
		rules: []string{equiv.RuleDeadlock},
		mutate: func(t *testing.T, d *netlist.Design) {
			ai := d.Top.Inst("G2_Mctrl/ai")
			if ai == nil {
				t.Fatal("G2_Mctrl/ai not found")
			}
			d.Top.Disconnect(ai, "Z")
		},
	},
	{
		// Region 1's master and slave latch controllers exchange reset
		// phases (CGMX1 resets transparent, CGSX1 opaque): the region
		// comes out of reset with the slave open and the master closed,
		// off the synchronous master/slave discipline.
		name:  "swapped-phases",
		rules: []string{equiv.RuleSafety, equiv.RuleFlow, equiv.RuleDeadlock},
		mutate: func(t *testing.T, d *netlist.Design) {
			mg, sg := d.Top.Inst("G1_Mctrl/g"), d.Top.Inst("G1_Sctrl/g")
			if mg == nil || sg == nil {
				t.Fatal("G1 controller g cells not found")
			}
			mg.Cell = d.Lib.MustCell("CGSX1")
			sg.Cell = d.Lib.MustCell("CGMX1")
		},
		// The swapped-phase control network is hazard-free — the formal
		// violation is EQ-FLOW, not EQ-SAFE, so no illegal control state
		// exists for the replay watchdogs to trip on. Its dynamic shadow
		// is architectural: the slave latches the previous generation, so
		// the free-running design's PC/R7 trace diverges from the golden
		// model.
		confirm: func(t *testing.T, f *expt.Flow, m *equiv.Model, tr *equiv.Trace) string {
			run, err := expt.MeasureDDLX(f, netlist.Worst, 1.0, -1, 20)
			if err != nil {
				return "free run stalled: " + err.Error()
			}
			if run.Correct {
				t.Fatal("free-running swapped-phase design still matched the golden architectural model")
			}
			return "free-running PC/R7 trace diverged from the golden architectural model"
		},
	},
	{
		// One leaf of region 4's request C-tree is rewired to duplicate
		// its sibling leg: the join fires without waiting for that
		// predecessor's request, so region 4 captures off schedule.
		name:  "missing-cinput",
		rules: []string{equiv.RuleFlow, equiv.RuleSafety},
		mutate: func(t *testing.T, d *netlist.Design) {
			c0 := d.Top.Inst("G4_reqC/c0")
			if c0 == nil {
				t.Fatal("G4_reqC/c0 not found")
			}
			dup := c0.Conn("A")
			if dup == nil || c0.Conn("B") == nil {
				t.Fatal("G4_reqC/c0 legs not wired as expected")
			}
			d.Top.Disconnect(c0, "B")
			d.Top.MustConnect(c0, "B", dup)
		},
	},
}

// TestKnownBadFixtures catches each construction bug formally, pins the
// counterexample against its golden trace under testdata/, and confirms it
// dynamically by replaying the interleaving on the mutated netlist.
func TestKnownBadFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			f, err := expt.RunFlow("dlx", expt.FlowConfig{})
			if err != nil {
				t.Fatalf("DLX flow: %v", err)
			}
			fx.mutate(t, f.Design)
			mod := f.Design.Top

			m, err := equiv.FromNetwork(mod, ctrlnet.Derive(mod))
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Explore(context.Background(), equiv.ExploreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("mutation not caught (states=%d truncated=%v)", res.States, res.Truncated)
			}
			if !ruleIn(res.Violation.Rule, fx.rules) {
				t.Fatalf("caught as %s, want one of %v: %s", res.Violation.Rule, fx.rules, res.Violation.Msg)
			}
			if len(res.Violation.Events) == 0 {
				t.Fatal("violation has no counterexample trace")
			}

			tr := res.CounterexampleTrace()
			golden := filepath.Join("testdata", fx.name+".json")
			if *update {
				var buf bytes.Buffer
				if err := equiv.WriteTrace(&buf, tr); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			gf, err := os.Open(golden)
			if err != nil {
				t.Fatalf("golden trace missing (run with -update): %v", err)
			}
			want, err := equiv.ReadTrace(gf)
			gf.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tr, want) {
				t.Errorf("counterexample drifted from golden %s:\n got rule %s with %d events\nwant rule %s with %d events\n(re-run with -update if the change is intended)",
					golden, tr.Rule, len(tr.Events), want.Rule, len(want.Events))
			}

			confirm := fx.confirm
			if confirm == nil {
				confirm = func(t *testing.T, f *expt.Flow, m *equiv.Model, tr *equiv.Trace) string {
					rep, err := equiv.Replay(f.Design.Top, m, tr)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Confirmed {
						t.Fatalf("replay did not confirm the counterexample: %s", rep.Detail)
					}
					return rep.Detail
				}
			}
			detail := confirm(t, f, m, tr)
			t.Logf("%s: %s after %d states, %d-event counterexample; confirmed: %s",
				fx.name, res.Violation.Rule, res.States, len(tr.Events), detail)
		})
	}
}

func ruleIn(rule string, set []string) bool {
	for _, r := range set {
		if r == rule {
			return true
		}
	}
	return false
}
