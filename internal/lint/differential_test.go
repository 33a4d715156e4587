package lint

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// diffReference lints m with the dense NL-* rules and with the reference
// rules and fails when the two reports differ by a byte. It returns the
// dense report.
func diffReference(t *testing.T, what string, m *netlist.Module, midFlow bool) *Report {
	t.Helper()
	opts := Options{MidFlow: midFlow}
	ref := &Report{}
	ref.refCheckNetlist(m, opts)
	ref.Sort()
	got := Check(m, opts)
	if g, w := got.Text(), ref.Text(); g != w {
		t.Errorf("%s (mid-flow %v): dense rules drifted from the reference:\n got:\n%s\nwant:\n%s", what, midFlow, g, w)
	}
	return got
}

// TestNetlistRulesMatchReferenceOnFixtures holds the dense rules to the
// reference on every Verilog fixture under testdata, whatever rule the
// fixture was written for.
func TestNetlistRulesMatchReferenceOnFixtures(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	files, err := filepath.Glob(filepath.Join("testdata", "*.v"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		d, err := verilog.Read(string(src), lib, "")
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, mid := range []bool{false, true} {
			diffReference(t, f, d.Top, mid)
		}
	}
}

// TestNetlistErrorsMatchCheck: on every fixture, CheckNetlistErrors
// reports exactly Check's Error findings, and so the same error count and
// leading finding, without running the warning-only rules.
func TestNetlistErrorsMatchCheck(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	files, err := filepath.Glob(filepath.Join("testdata", "*.v"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	errorsOf := func(r *Report) string {
		var b strings.Builder
		for _, f := range r.Findings {
			if f.Severity == Error {
				b.WriteString(f.String() + "\n")
			}
		}
		return b.String()
	}
	warned := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		d, err := verilog.Read(string(src), lib, "")
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, mid := range []bool{false, true} {
			full, errs := Check(d.Top, Options{MidFlow: mid}), CheckNetlistErrors(d.Top, mid)
			if g, w := errorsOf(errs), errorsOf(full); g != w {
				t.Errorf("%s (mid-flow %v): error findings\n%s\nwant\n%s", f, mid, g, w)
			}
			if len(errs.ByRule(RuleCone))+len(errs.ByRule(RuleName)) != 0 {
				t.Errorf("%s: CheckNetlistErrors ran a warning-only rule:\n%s", f, errs.Text())
			}
			warned += len(full.ByRule(RuleCone)) + len(full.ByRule(RuleName))
		}
	}
	if warned == 0 {
		t.Error("no fixture has an NL-CONE or NL-NAME finding to leave out")
	}
}

// TestNetlistRulesMatchReferenceThroughFlow holds the dense rules to the
// reference at every gate a verified run lints: the imported design, each
// StageCheck boundary and the exported design, for the case studies and a
// small pipeline under both backends.
func TestNetlistRulesMatchReferenceThroughFlow(t *testing.T) {
	inputs := []struct {
		spec   string
		period float64
	}{
		{"dlx", 4.65},
		{"arm", 12},
		{"fir", 6},
		{"pipeline:depth=4,width=8,regions=6", 2},
	}
	for _, in := range inputs {
		for _, backend := range []string{core.BackendDesync, core.BackendTwoPhase} {
			t.Run(in.spec+"/"+backend, func(t *testing.T) {
				convert := func(oneRegion bool) (*netlist.Design, int, error) {
					d, err := designs.ParseSpec(in.spec, nil)
					if err != nil {
						t.Fatal(err)
					}
					diffReference(t, "import", d.Top, false)
					o := core.Options{Backend: backend, Period: in.period}
					if oneRegion {
						for _, x := range d.Top.Insts {
							x.Group = 1
						}
						o.ManualGroups = true
					}
					checks := 0
					o.StageCheck = func(stage string, midFlow bool) error {
						checks++
						diffReference(t, stage, d.Top, midFlow)
						return nil
					}
					_, err = core.Convert(context.Background(), d, o)
					return d, checks, err
				}
				d, checks, err := convert(false)
				if errors.Is(err, core.ErrNoRegions) {
					d, checks, err = convert(true) // the flow's single-region fallback
				}
				if err != nil {
					t.Fatal(err)
				}
				if checks != 4 {
					t.Errorf("%d StageCheck boundaries, want 4", checks)
				}
				diffReference(t, "export", d.Top, false)
			})
		}
	}
}

// TestNetlistRulesMatchReferenceOnCorruptions holds the dense rules to the
// reference on seeded random corruptions of a small pipeline: extra
// drivers written past the bookkeeping (onto the module's own nets and
// onto a net of another module), removed connections, gate outputs fed
// back into their own cones, and escaped renames that make names clash.
func TestNetlistRulesMatchReferenceOnCorruptions(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	fired := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		d, err := designs.ParseSpec("pipeline:depth=3,width=8,regions=2", lib)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		c := &corrupter{rng: rng, m: d.Top, lib: lib, foreign: foreignModule(lib)}
		var did []string
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			did = append(did, c.apply(k))
		}
		what := fmt.Sprintf("seed %d (%s)", seed, strings.Join(did, ", "))
		for _, mid := range []bool{false, true} {
			for _, f := range diffReference(t, what, d.Top, mid).Findings {
				fired[f.Rule]++
			}
		}
		if t.Failed() {
			return // one drifted seed is diagnosis enough
		}
	}
	for _, rule := range []string{RuleMulti, RuleLoop, RuleCone, RuleName} {
		if fired[rule] == 0 {
			t.Errorf("no corruption fired %s; the comparison never exercised it", rule)
		}
	}
}

// TestNetlistRulesMatchReferenceOnForeignNets wires a module to a net of
// another module whose NetID is also one of the module's own: a register
// reads the foreign net, and the gate driving it reads a net of the
// module back. NL-CONE must walk through the foreign gate, and must not
// take the foreign net for the module's net with the same NetID.
func TestNetlistRulesMatchReferenceOnForeignNets(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	m := netlist.NewModule("host")
	a := m.AddPort("a", netlist.In).Net
	clk := m.AddPort("clk", netlist.In).Net
	n2, n3 := m.AddNet("n2"), m.AddNet("n3")
	for _, g := range []struct {
		name string
		out  *netlist.Net
	}{{"g2", n2}, {"g3", n3}} {
		inv := m.AddInst(g.name, lib.MustCell("INVX1"))
		m.MustConnect(inv, "A", a)
		m.MustConnect(inv, "Z", g.out)
	}
	other := netlist.NewModule("other")
	other.AddNet("f0")
	other.AddNet("f1")
	f2 := other.AddNet("f2")
	if f2.ID() != n2.ID() {
		t.Fatalf("fixture: foreign net has NetID %d, want n2's %d", f2.ID(), n2.ID())
	}
	fg := other.AddInst("fg", lib.MustCell("INVX1"))
	other.MustConnect(fg, "Z", f2)
	// n3 is observed only through the foreign gate, and r1 reads f2 before
	// r2 reads n2.
	fg.SetConnUnchecked("A", n3)
	for i, d := range []*netlist.Net{f2, n2} {
		r := m.AddInst(fmt.Sprintf("r%d", i+1), lib.MustCell("DFFQX1"))
		if d == f2 {
			r.SetConnUnchecked("D", f2)
		} else {
			m.MustConnect(r, "D", d)
		}
		m.MustConnect(r, "CK", clk)
		m.MustConnect(r, "Q", m.AddPort(fmt.Sprintf("q%d", i+1), netlist.Out).Net)
	}
	for _, mid := range []bool{false, true} {
		if rep := diffReference(t, "foreign net", m, mid); len(rep.ByRule(RuleCone)) != 0 {
			t.Errorf("a gate observed through the foreign net is reported dead:\n%s", rep.Text())
		}
	}
}

// TestNetlistRulesMatchReferenceOnUndeclaredPin writes connections on pins
// the cells do not declare, which only SetConnUnchecked can do. Such a
// connection carries the direction In, yet it neither reads nor drives:
// the inverter whose only reader is a register's undeclared pin stays a
// dead cone, and a gate's undeclared pin on that net adds no driver.
func TestNetlistRulesMatchReferenceOnUndeclaredPin(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	m := netlist.NewModule("host")
	a := m.AddPort("a", netlist.In).Net
	clk := m.AddPort("clk", netlist.In).Net
	n := m.AddNet("n")
	g := m.AddInst("g", lib.MustCell("INVX1"))
	m.MustConnect(g, "A", a)
	m.MustConnect(g, "Z", n)
	r := m.AddInst("r", lib.MustCell("DFFQX1"))
	m.MustConnect(r, "D", a)
	m.MustConnect(r, "CK", clk)
	m.MustConnect(r, "Q", m.AddPort("q", netlist.Out).Net)
	r.SetConnUnchecked("X", n)
	h := m.AddInst("h", lib.MustCell("INVX1"))
	m.MustConnect(h, "A", a)
	m.MustConnect(h, "Z", m.AddPort("z", netlist.Out).Net)
	h.SetConnUnchecked("Y", n)
	for _, mid := range []bool{false, true} {
		rep := diffReference(t, "undeclared pins", m, mid)
		if len(rep.ByRule(RuleCone)) != 1 || len(rep.ByRule(RuleMulti)) != 0 {
			t.Errorf("undeclared pins read or drove a net:\n%s", rep.Text())
		}
	}
}

// foreignModule is a one-gate module whose nets and instance carry the
// same low IDs as the corrupted module's first records.
func foreignModule(lib *netlist.Library) *netlist.Module {
	o := netlist.NewModule("other")
	g := o.AddInst("fg", lib.MustCell("INVX1"))
	o.MustConnect(g, "A", o.AddNet("fi"))
	o.MustConnect(g, "Z", o.AddNet("fz"))
	return o
}

// corrupter applies one random corruption at a time to a module.
type corrupter struct {
	rng     *rand.Rand
	m       *netlist.Module
	lib     *netlist.Library
	foreign *netlist.Module
}

func (c *corrupter) net() *netlist.Net { return c.m.Nets[c.rng.Intn(len(c.m.Nets))] }

func (c *corrupter) inst() *netlist.Inst { return c.m.Insts[c.rng.Intn(len(c.m.Insts))] }

// apply makes corruption k and names what it did.
func (c *corrupter) apply(k int) string {
	switch c.rng.Intn(4) {
	case 0:
		return c.extraDriver(k)
	case 1:
		in := c.inst()
		pcs := in.Conns()
		if len(pcs) == 0 {
			return "no-op"
		}
		pin := pcs[c.rng.Intn(len(pcs))].Pin
		c.m.Disconnect(in, pin)
		return "disconnect " + in.Name + "/" + pin
	case 2:
		return c.feedBack()
	default:
		return c.rename()
	}
}

// extraDriver adds an inverter whose output is written straight into its
// connection list: onto a net of the module, or onto the foreign module's
// driven net. Sometimes a gate input reads that foreign net too.
func (c *corrupter) extraDriver(k int) string {
	target := c.net()
	if c.rng.Intn(4) == 0 {
		target = c.foreign.Net("fz")
		if c.rng.Intn(2) == 0 {
			in := c.inst()
			if in.Cell != nil && len(in.Cell.Inputs()) > 0 {
				pin := in.Cell.Inputs()[0]
				in.SetConnUnchecked(pin, target)
			}
		}
	}
	u := c.m.AddInst(fmt.Sprintf("xdrv%d", k), c.lib.MustCell("INVX1"))
	c.m.MustConnect(u, "A", c.net())
	u.SetConnUnchecked("Z", target)
	return "extra driver on " + target.Name
}

// feedBack walks forward from a combinational gate's output through a few
// combinational readers and reconnects one of the gate's inputs to the net
// it reached.
func (c *corrupter) feedBack() string {
	var g *netlist.Inst
	for tries := 0; tries < 20 && g == nil; tries++ {
		if in := c.inst(); in.Cell != nil && in.Cell.Kind == netlist.KindComb && len(in.Cell.Inputs()) > 0 {
			g = in
		}
	}
	if g == nil {
		return "no-op"
	}
	n := g.Conn(g.Cell.Outputs()[0])
	if n == nil {
		return "no-op"
	}
	for steps := c.rng.Intn(4); steps > 0; steps-- {
		var next []*netlist.Net
		for _, s := range n.Sinks {
			if s.Inst != nil && s.Inst.Cell != nil && s.Inst.Cell.Kind == netlist.KindComb {
				if z := s.Inst.Conn(s.Inst.Cell.Outputs()[0]); z != nil {
					next = append(next, z)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		n = next[c.rng.Intn(len(next))]
	}
	ins := g.Cell.Inputs()
	pin := ins[c.rng.Intn(len(ins))]
	c.m.Disconnect(g, pin)
	c.m.MustConnect(g, pin, n)
	return "feed " + n.Name + " back into " + g.Name + "/" + pin
}

// rename gives two nets or fresh unconnected buffers names from a small
// pool whose members simplify alike: plain, escaped and bus forms, so the
// pair may clash with each other or with an earlier rename.
func (c *corrupter) rename() string {
	base := fmt.Sprintf("s%d", c.rng.Intn(2))
	forms := []string{base + "_x", base + "/x", base + ".x", base + "/x[3]", base + "_x[3]", base + "/x[03]", "3" + base + "_x"}
	var did []string
	for range 2 {
		name := forms[c.rng.Intn(len(forms))]
		if c.rng.Intn(3) == 0 {
			if c.m.Inst(name) == nil {
				c.m.AddInst(name, c.lib.MustCell("BUFX1"))
				did = append(did, "add instance "+name)
			}
			continue
		}
		n := c.net()
		old := n.Name
		if err := c.m.RenameNet(n, name); err == nil {
			did = append(did, "rename "+old+" to "+name)
		}
	}
	return strings.Join(did, ", ")
}
