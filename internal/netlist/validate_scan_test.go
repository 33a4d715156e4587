package netlist_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/stdcells"
)

const scanSpec = "pipeline:depth=3,width=8,regions=2"

func buildScanPipeline(t *testing.T, lib *netlist.Library) *netlist.Module {
	t.Helper()
	d, err := designs.ParseSpec(scanSpec, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d.Top
}

// TestCleanScanAgreesWithDiagnosticPass corrupts a small pipeline behind
// the mutators' backs over a few hundred seeds and requires Validate's two
// deciders to agree under both AllowUndriven values: the allocation-free
// scan reports clean exactly when the diagnostic pass finds nothing. Once
// ModSeq has moved, the scan alone decides that a module is clean, so a
// disagreement would let a broken module through a stage boundary.
func TestCleanScanAgreesWithDiagnosticPass(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	verdicts := map[bool]int{}
	fired := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		m := buildScanPipeline(t, lib)
		c := &corrupter{rng: rand.New(rand.NewSource(seed)), m: m, foreign: foreignModule(lib)}
		var did []string
		for k := 1 + c.rng.Intn(3); k > 0; k-- {
			kind, what := c.apply()
			fired[kind]++
			did = append(did, what)
		}
		for _, allow := range []bool{false, true} {
			errs := netlist.ValidateFull(m, netlist.ValidateOptions{AllowUndriven: allow})
			clean := netlist.CleanScan(m, allow)
			if clean != (len(errs) == 0) {
				t.Fatalf("seed %d (%s), AllowUndriven=%v: scan says clean=%v, diagnostic pass found %d errors: %v",
					seed, strings.Join(did, "; "), allow, clean, len(errs), errs)
			}
			verdicts[clean]++
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("the corruptions never produced both verdicts: %v", verdicts)
	}
	for _, kind := range corruptionKinds {
		if fired[kind] == 0 {
			t.Errorf("no seed applied corruption %q", kind)
		}
	}
}

// TestValidateCleanAfterMutationAllocatesNothing renames a net and renames
// it back: the module is clean again, but its ModSeq has moved and one net
// was touched twice. Validate must settle it with the allocation-free scan;
// running the diagnostic pass (maps, formatted messages) on a clean module
// is wasted work.
func TestValidateCleanAfterMutationAllocatesNothing(t *testing.T) {
	m := buildScanPipeline(t, stdcells.New(stdcells.HighSpeed))
	if errs := m.Validate(netlist.ValidateOptions{}); len(errs) != 0 {
		t.Fatalf("fresh pipeline invalid: %v", errs)
	}
	var n *netlist.Net
	for _, x := range m.Nets {
		if len(x.Sinks) > 1 && x.Sinks[0].Inst != nil {
			n = x
			break
		}
	}
	if n == nil {
		t.Fatal("fixture: no net with instance sinks")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 10
	var mallocs uint64
	var before, after runtime.MemStats
	for range rounds {
		name, seq := n.Name, m.ModSeq()
		for _, to := range []string{name + "_tmp", name} {
			if err := m.RenameNet(n, to); err != nil {
				t.Fatal(err)
			}
		}
		if m.ModSeq() == seq {
			t.Fatal("fixture: RenameNet did not move ModSeq")
		}
		runtime.ReadMemStats(&before)
		errs := m.Validate(netlist.ValidateOptions{})
		runtime.ReadMemStats(&after)
		if len(errs) != 0 {
			t.Fatalf("module invalid after a reverted rename: %v", errs)
		}
		mallocs += after.Mallocs - before.Mallocs
	}
	if mallocs/rounds != 0 {
		t.Fatalf("Validate on a clean module allocated %d objects in %d calls: the diagnostic pass ran", mallocs, rounds)
	}
}

// TestValidateShortcutKeepsStrictness: a clean verdict reached while
// undriven nets were allowed does not answer a strict call at the same
// ModSeq.
func TestValidateShortcutKeepsStrictness(t *testing.T) {
	m := buildScanPipeline(t, stdcells.New(stdcells.HighSpeed))
	var n *netlist.Net
	for _, x := range m.Nets {
		if x.Driver.Inst != nil && len(x.Sinks) > 0 {
			n = x
			break
		}
	}
	if n == nil {
		t.Fatal("fixture: no instance-driven net with sinks")
	}
	m.Disconnect(n.Driver.Inst, n.Driver.Pin)
	if errs := m.Validate(netlist.ValidateOptions{AllowUndriven: true}); len(errs) != 0 {
		t.Fatalf("undriven net rejected although allowed: %v", errs)
	}
	errs := m.Validate(netlist.ValidateOptions{})
	if len(errs) != 1 || errs[0].Rule != netlist.VRuleUndriven {
		t.Fatalf("strict Validate after a lenient clean verdict: want one %q error, got %v", netlist.VRuleUndriven, errs)
	}
}

// foreignModule returns a module with one inverter and three nets whose
// InstID and NetIDs are also the corrupted module's first IDs.
func foreignModule(lib *netlist.Library) *netlist.Module {
	o := netlist.NewModule("other")
	o.AddInst("fg", lib.MustCell("INVX1"))
	for i := range 3 {
		o.AddNet(fmt.Sprintf("f%d", i))
	}
	return o
}

var corruptionKinds = []string{
	"conn-own", "conn-foreign", "dup-sink", "drop-sink", "move-sink",
	"clear-driver", "rename-net", "rename-inst", "port-foreign", "stale-inst",
	"disconnect",
}

// corrupter applies one random corruption at a time to a module. Each one
// writes record fields directly, past the module's bookkeeping and its
// ModSeq, apart from the plain "disconnect" kind and the Disconnect or
// RemoveInst call some kinds make first.
type corrupter struct {
	rng     *rand.Rand
	m       *netlist.Module
	foreign *netlist.Module
}

func (c *corrupter) net() *netlist.Net { return c.m.Nets[c.rng.Intn(len(c.m.Nets))] }

func (c *corrupter) inst() *netlist.Inst { return c.m.Insts[c.rng.Intn(len(c.m.Insts))] }

func (c *corrupter) foreignNet() *netlist.Net {
	return c.foreign.Nets[c.rng.Intn(len(c.foreign.Nets))]
}

// sinkNet returns a net with at least one sink, or nil if a few draws
// find none.
func (c *corrupter) sinkNet() *netlist.Net {
	for range 20 {
		if n := c.net(); len(n.Sinks) > 0 {
			return n
		}
	}
	return nil
}

// apply makes one corruption and returns its kind and what it did.
func (c *corrupter) apply() (kind, what string) {
	kind = corruptionKinds[c.rng.Intn(len(corruptionKinds))]
	switch kind {
	case "conn-own", "conn-foreign":
		in := c.inst()
		pd := in.Cell.Pins[c.rng.Intn(len(in.Cell.Pins))]
		target := c.net()
		if kind == "conn-foreign" {
			target = c.foreignNet()
			if c.rng.Intn(2) == 0 {
				// Wired as the other module's Connect would have done it:
				// off the own net, and recorded on the foreign net's side.
				c.m.Disconnect(in, pd.Name)
				ref := netlist.PinRef{Inst: in, Pin: pd.Name}
				if pd.Dir == netlist.Out {
					target.Driver = ref
				} else {
					target.Sinks = append(target.Sinks, ref)
				}
			}
		}
		in.SetConnUnchecked(pd.Name, target)
		what = fmt.Sprintf("%s/%s onto %s", in.Name, pd.Name, target.Name)
	case "dup-sink", "drop-sink", "move-sink":
		n := c.sinkNet()
		if n == nil {
			return kind, "no-op"
		}
		i := c.rng.Intn(len(n.Sinks))
		s := n.Sinks[i]
		switch kind {
		case "dup-sink":
			n.Sinks = append(n.Sinks, s)
			what = fmt.Sprintf("list %s twice on %s", s, n.Name)
		case "drop-sink":
			n.Sinks = slices.Delete(n.Sinks, i, i+1)
			what = fmt.Sprintf("drop %s from %s", s, n.Name)
		default:
			to := c.net()
			n.Sinks = slices.Delete(n.Sinks, i, i+1)
			to.Sinks = append(to.Sinks, s)
			what = fmt.Sprintf("move %s from %s to %s", s, n.Name, to.Name)
		}
	case "clear-driver":
		n := c.net()
		what = fmt.Sprintf("clear %s's driver %s", n.Name, n.Driver)
		n.Driver = netlist.PinRef{}
	case "rename-net":
		n, other := c.net(), c.net()
		name := other.Name
		if c.rng.Intn(2) == 0 {
			name = n.Name + "_esc"
		}
		what = fmt.Sprintf("rename net %s to %s", n.Name, name)
		n.Name = name
	case "rename-inst":
		in, other := c.inst(), c.inst()
		name := other.Name
		if c.rng.Intn(2) == 0 {
			name = in.Name + "_esc"
		}
		what = fmt.Sprintf("rename instance %s to %s", in.Name, name)
		in.Name = name
	case "port-foreign":
		p := c.m.Ports[c.rng.Intn(len(c.m.Ports))]
		p.Net = c.foreignNet()
		what = fmt.Sprintf("bind port %s to %s", p.Name, p.Net.Name)
	case "stale-inst":
		// A net lists, as sink or driver, an instance that is not the
		// module's: the foreign inverter, or one removed from the module.
		n, in := c.net(), c.foreign.Inst("fg")
		if c.rng.Intn(2) == 0 {
			in = c.inst()
			c.m.RemoveInst(in)
		}
		pin := in.Cell.Pins[c.rng.Intn(len(in.Cell.Pins))]
		in.SetConnUnchecked(pin.Name, n)
		ref := netlist.PinRef{Inst: in, Pin: pin.Name}
		if pin.Dir == netlist.Out {
			if d := n.Driver; d.Inst != nil {
				c.m.Disconnect(d.Inst, d.Pin) // the stale record is the only claimant
			}
			n.Driver = ref
		} else {
			n.Sinks = append(n.Sinks, ref)
		}
		what = fmt.Sprintf("list %s on %s", ref, n.Name)
	default:
		in := c.inst()
		pcs := in.Conns()
		if len(pcs) == 0 {
			return kind, "no-op"
		}
		pin := pcs[c.rng.Intn(len(pcs))].Pin
		c.m.Disconnect(in, pin)
		what = "disconnect " + in.Name + "/" + pin
	}
	return kind, what
}
