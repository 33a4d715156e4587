package lint_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/lint"
	"desync/internal/netlist"
	"desync/internal/sdc"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// -update regenerates the desynchronized fixtures (which are flow output,
// not hand-written) and every golden findings file. The nl_*.v fixtures are
// hand-written and never rewritten.
var update = flag.Bool("update", false, "regenerate generated fixtures and golden findings")

// fixture is one known-bad netlist under testdata: linting it must yield at
// least one finding of its rule, and the full report must match the golden.
type fixture struct {
	rule string
	file string                                   // Verilog netlist under testdata
	sdc  string                                   // optional SDC for the desync cross-checks (implies Desync)
	gen  func(t *testing.T, lib *netlist.Library) // regenerates file (+ sdc) under -update
}

func fixtures() []fixture {
	return []fixture{
		{rule: lint.RulePin, file: "nl_pin.v"},
		{rule: lint.RuleFloat, file: "nl_float.v"},
		{rule: lint.RuleLoop, file: "nl_loop.v"},
		{rule: lint.RuleCone, file: "nl_cone.v"},
		{rule: lint.RuleName, file: "nl_name.v"},
		{rule: lint.RuleName, file: "nl_name_groups.v"},
		{rule: lint.RuleFF, file: "ds_ff.v", sdc: "tiny.sdc", gen: genMutant(mutFF)},
		{rule: lint.RuleEnable, file: "ds_enable.v", sdc: "tiny.sdc", gen: genMutant(mutEnable)},
		{rule: lint.RulePhase, file: "ds_phase.v", sdc: "tiny.sdc", gen: genMutant(mutPhase)},
		{rule: lint.RulePair, file: "ds_pair.v", sdc: "tiny.sdc", gen: genMutant(mutPair)},
		{rule: lint.RuleCElem, file: "ds_celem.v", sdc: "tiny.sdc", gen: genMutant(mutCElem)},
		{rule: lint.RuleMargin, file: "ds_margin.v", sdc: "tiny.sdc", gen: genMutant(mutMargin)},
		{rule: lint.RuleSDC, file: "ds_sdc.v", sdc: "ds_sdc.sdc", gen: genSDCMutant},
	}
}

// buildTiny constructs and desynchronizes the three-region join pipeline
// all generated fixtures are mutations of: two parallel register banks
// rendezvousing into a third, so the control network has environment
// channels, a point-to-point channel and a C-element join.
func buildTiny(t *testing.T, lib *netlist.Library) (*netlist.Design, *core.Result) {
	t.Helper()
	b := designs.NewBuilder("tiny", lib)
	m := b.M
	clk := m.AddPort("clk", netlist.In).Net
	rstn := m.AddPort("rstn", netlist.In).Net
	da := b.InputBus("da", 2)
	db := b.InputBus("db", 2)
	q1 := b.RegBank("r1", da, clk, rstn, "q1")
	q2 := b.RegBank("r2", db, clk, rstn, "q2")
	x := make(designs.Bus, 2)
	for i := range x {
		x[i] = b.Xor(q1[i], q2[i])
		// The cloud groups with the region that captures it: the dependency
		// graph derives its edges from the reading instance's region.
		x[i].Driver.Inst.Group = 3
	}
	q3 := b.RegBank("r3", x, clk, rstn, "q3")
	for i, n := range b.OutputBus("dout", 2) {
		b.Gate("BUFX1", q3[i], n)
	}
	for _, in := range m.Insts {
		for prefix, g := range map[string]int{"r1[": 1, "r2[": 2, "r3[": 3} {
			if strings.HasPrefix(in.Name, prefix) {
				in.Group = g
			}
		}
	}
	d := &netlist.Design{Name: "tiny", Top: m, Modules: map[string]*netlist.Module{"tiny": m}, Lib: lib}
	res, err := core.Convert(context.Background(), d, core.Options{Period: 2.0, ManualGroups: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// genMutant regenerates one mutated netlist fixture plus the shared
// tiny.sdc (the unmutated constraints, identical for every mutant because
// the mutations never touch the control loops the SDC covers).
func genMutant(mut func(t *testing.T, m *netlist.Module, lib *netlist.Library)) func(*testing.T, *netlist.Library) {
	return func(t *testing.T, lib *netlist.Library) {
		d, res := buildTiny(t, lib)
		mut(t, d.Top, lib)
		writeFile(t, fixturePath(t.Name()), verilog.Write(d))
		writeFile(t, filepath.Join("testdata", "tiny.sdc"), res.Constraints.Write())
	}
}

// genSDCMutant leaves the netlist intact and strips the master controller
// of region 1 of its loop-breaking disables from the constraints.
func genSDCMutant(t *testing.T, lib *netlist.Library) {
	d, res := buildTiny(t, lib)
	writeFile(t, fixturePath(t.Name()), verilog.Write(d))
	cons := *res.Constraints
	var kept []sdc.DisabledArc
	for _, da := range cons.Disabled {
		if !strings.HasPrefix(da.Inst, "G1_Mctrl/") {
			kept = append(kept, da)
		}
	}
	if len(kept) == len(cons.Disabled) {
		t.Fatal("no G1_Mctrl disables found to strip")
	}
	cons.Disabled = kept
	writeFile(t, filepath.Join("testdata", "ds_sdc.sdc"), cons.Write())
}

func fixturePath(testName string) string {
	base := testName[strings.LastIndexByte(testName, '/')+1:]
	return filepath.Join("testdata", base)
}

func writeFile(t *testing.T, path, text string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustInst(t *testing.T, m *netlist.Module, name string) *netlist.Inst {
	t.Helper()
	in := m.Inst(name)
	if in == nil {
		t.Fatalf("fixture base design has no instance %q", name)
	}
	return in
}

func mustNet(t *testing.T, m *netlist.Module, name string) *netlist.Net {
	t.Helper()
	n := m.Net(name)
	if n == nil {
		t.Fatalf("fixture base design has no net %q", name)
	}
	return n
}

// dataPin returns a sequential cell's (sole) data input pin.
func dataPin(t *testing.T, cell *netlist.CellDef) string {
	t.Helper()
	for _, p := range cell.Pins {
		if p.Dir == netlist.In && p.Class == netlist.ClassData {
			return p.Name
		}
	}
	t.Fatalf("cell %s has no data pin", cell.Name)
	return ""
}

// mutFF plants a surviving flip-flop wired into live nets (DS-FF).
func mutFF(t *testing.T, m *netlist.Module, lib *netlist.Library) {
	ff := m.AddInst("zombie_ff", lib.MustCell("DFFRQX1"))
	m.MustConnect(ff, "D", mustNet(t, m, "G1_mri"))
	m.MustConnect(ff, "CK", mustNet(t, m, "G1_mro"))
	m.MustConnect(ff, "RN", m.Port("rst_desync").Net)
	m.MustConnect(ff, "Q", m.AddNet("zombie_q"))
}

// mutEnable reroutes one latch enable from its controller to the reset
// input (DS-ENABLE).
func mutEnable(t *testing.T, m *netlist.Module, lib *netlist.Library) {
	l := mustInst(t, m, "r1[0]/ml")
	ck := l.Cell.Seq.ClockPin
	m.Disconnect(l, ck)
	m.MustConnect(l, ck, m.Port("rst_desync").Net)
}

// mutPhase feeds a master latch from another region's master instead of its
// slave, breaking phase alternation (DS-PHASE).
func mutPhase(t *testing.T, m *netlist.Module, lib *netlist.Library) {
	dst := mustInst(t, m, "r3[0]/ml")
	src := mustInst(t, m, "r1[0]/ml")
	d := dataPin(t, dst.Cell)
	m.Disconnect(dst, d)
	m.MustConnect(dst, d, src.Conn(src.Cell.Seq.Q))
}

// mutPair rewires the join region's request away from its rendezvous net
// straight onto one predecessor (DS-PAIR).
func mutPair(t *testing.T, m *netlist.Module, lib *netlist.Library) {
	a1 := mustInst(t, m, "G3_delem/a1")
	m.Disconnect(a1, "B")
	m.MustConnect(a1, "B", mustNet(t, m, "G1_sro"))
}

// mutCElem collapses both legs of the request-join C-element onto one net,
// degenerating the rendezvous (DS-CELEM).
func mutCElem(t *testing.T, m *netlist.Module, lib *netlist.Library) {
	for _, in := range m.Insts {
		if strings.HasPrefix(in.Name, "G3_reqC/") && in.Cell != nil &&
			in.Cell.Kind == netlist.KindCElem {
			a := in.Conn("A")
			m.Disconnect(in, "B")
			m.MustConnect(in, "B", a)
			return
		}
	}
	t.Fatal("fixture base design has no G3_reqC C-element")
}

// mutMargin lengthens the datapath into region 3 with a buffer chain the
// matched delay element was not sized for (DS-MARGIN).
func mutMargin(t *testing.T, m *netlist.Module, lib *netlist.Library) {
	dst := mustInst(t, m, "r3[0]/ml")
	d := dataPin(t, dst.Cell)
	prev := dst.Conn(d)
	m.Disconnect(dst, d)
	for i := 0; i < 8; i++ {
		out := m.AddNet(fmt.Sprintf("slow%d", i))
		bu := m.AddInst(fmt.Sprintf("slowbuf%d", i), lib.MustCell("BUFX1"))
		m.MustConnect(bu, "A", prev)
		m.MustConnect(bu, "Z", out)
		prev = out
	}
	m.MustConnect(dst, d, prev)
}

// TestFixtures lints every known-bad netlist under testdata and compares
// the full report against its golden file; each fixture must fire its rule.
func TestFixtures(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	for _, fx := range fixtures() {
		t.Run(fx.file, func(t *testing.T) {
			if *update && fx.gen != nil {
				fx.gen(t, lib)
			}
			src, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			d, err := verilog.Read(string(src), lib, "")
			if err != nil {
				t.Fatal(err)
			}
			opts := lint.Options{}
			if fx.sdc != "" {
				text, err := os.ReadFile(filepath.Join("testdata", fx.sdc))
				if err != nil {
					t.Fatal(err)
				}
				cons, err := sdc.Parse(string(text))
				if err != nil {
					t.Fatal(err)
				}
				opts.Desync = true
				opts.Constraints = cons
			}
			rep := lint.Check(d.Top, opts)
			if len(rep.ByRule(fx.rule)) == 0 {
				t.Errorf("rule %s did not fire:\n%s", fx.rule, rep.Text())
			}
			goldenPath := filepath.Join("testdata", strings.TrimSuffix(fx.file, ".v")+".golden")
			got := rep.Text()
			if *update {
				writeFile(t, goldenPath, got)
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("report drifted from %s:\n got:\n%s\nwant:\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestCorruptModuleFindings covers the two rules a Verilog fixture cannot
// express — the reader refuses double drivers at link time — by corrupting
// the in-memory bookkeeping the way a buggy flow stage would: a second
// output connection written straight into the connection list fires both
// the wrapped validator (NL-VALIDATE) and the true-driver count (NL-MULTI).
// The cases vary who drives the clashing net: two gates, an input port and
// a gate, three gates.
func TestCorruptModuleFindings(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	// inv adds an inverter reading in; its output goes to out through
	// Connect, or straight into the connection list when unchecked.
	inv := func(m *netlist.Module, name string, in, out *netlist.Net, unchecked bool) {
		u := m.AddInst(name, lib.MustCell("INVX1"))
		m.MustConnect(u, "A", in)
		if unchecked {
			u.SetConnUnchecked("Z", out) // bypass Connect: the clash the bookkeeping cannot hold
		} else {
			m.MustConnect(u, "Z", out)
		}
	}
	cases := []struct {
		golden string
		build  func(m *netlist.Module)
	}{
		{"nl_corrupt.golden", func(m *netlist.Module) {
			a := m.AddPort("a", netlist.In).Net
			z := m.AddPort("z", netlist.Out).Net
			inv(m, "u1", a, z, false)
			inv(m, "u2", a, z, true)
		}},
		{"nl_corrupt_port.golden", func(m *netlist.Module) {
			a := m.AddPort("a", netlist.In).Net
			b := m.AddPort("b", netlist.In).Net
			z := m.AddPort("z", netlist.Out).Net
			inv(m, "u1", a, z, false)
			inv(m, "u2", b, a, true)
		}},
		{"nl_corrupt_three.golden", func(m *netlist.Module) {
			a := m.AddPort("a", netlist.In).Net
			z := m.AddPort("z", netlist.Out).Net
			inv(m, "u1", a, z, false)
			inv(m, "u2", a, z, true)
			inv(m, "u3", a, z, true)
		}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			m := netlist.NewModule("corrupt")
			tc.build(m)
			rep := lint.Check(m, lint.Options{})
			for _, rule := range []string{lint.RuleValidate, lint.RuleMulti} {
				if len(rep.ByRule(rule)) == 0 {
					t.Errorf("rule %s did not fire:\n%s", rule, rep.Text())
				}
			}
			goldenPath := filepath.Join("testdata", tc.golden)
			got := rep.Text()
			if *update {
				writeFile(t, goldenPath, got)
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("report drifted from %s:\n got:\n%s\nwant:\n%s", goldenPath, got, want)
			}
		})
	}
}
