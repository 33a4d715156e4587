package verilog

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	_ "desync/internal/twophase" // registers the two-phase backend
)

// diffWrite fails when Write and the reference writer disagree by a byte.
func diffWrite(t *testing.T, what string, d *netlist.Design) {
	t.Helper()
	got, want := Write(d), refWrite(d)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s: Write drifted from the reference at line %d:\n got: %s\nwant: %s", what, i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("%s: Write drifted from the reference: %d lines, want %d", what, len(gl), len(wl))
}

// flowInputs are the designs TestWriteMatchesReferenceThroughFlow writes
// before and after Convert under both backends. "flat:" inputs are the
// generated design written as one flat module and read back, so Convert
// groups them automatically, one region per flip-flop.
var flowInputs = []struct {
	spec   string
	lib    stdcells.Variant
	period float64
}{
	{"dlx", stdcells.HighSpeed, 4.65},
	{"arm", stdcells.LowLeakage, 0},
	{"fir", stdcells.HighSpeed, 6},
	{"riscv", stdcells.HighSpeed, 0},
	{"des", stdcells.HighSpeed, 0},
	{"pipeline:depth=4,width=16,regions=4,kind=mix,seed=3", stdcells.HighSpeed, 0},
	{"pipeline:depth=4,width=16,regions=4,kind=feistel,seed=3", stdcells.HighSpeed, 0},
	{"flat:pipeline:depth=4,width=16,kind=mix,fanout=balanced,seed=1", stdcells.HighSpeed, 0},
}

// buildInput builds one of flowInputs.
func buildInput(t *testing.T, spec string, v stdcells.Variant) (*netlist.Design, bool) {
	t.Helper()
	lib := stdcells.New(v)
	flat := strings.HasPrefix(spec, "flat:")
	spec = strings.TrimPrefix(spec, "flat:")
	d, err := designs.ParseSpec(spec, lib)
	if err != nil {
		t.Fatal(err)
	}
	if flat {
		if d, err = Read(refWrite(d), lib, ""); err != nil {
			t.Fatal(err)
		}
	}
	return d, !flat && designs.PreGrouped(spec)
}

// TestWriteMatchesReferenceThroughFlow holds Write to the reference
// writer on the case studies and on generated pipelines, each as built
// and after Convert under both backends. Conversions that fail (the
// feistel designs under the desync backend stop at Export) are written
// as the failure left them.
func TestWriteMatchesReferenceThroughFlow(t *testing.T) {
	for _, in := range flowInputs {
		t.Run(in.spec, func(t *testing.T) {
			d, manual := buildInput(t, in.spec, in.lib)
			diffWrite(t, "as built", d)
			for _, backend := range []string{core.BackendDesync, core.BackendTwoPhase} {
				d, _ := buildInput(t, in.spec, in.lib)
				_, err := core.Convert(context.Background(), d, core.Options{Backend: backend, Period: in.period, ManualGroups: manual})
				diffWrite(t, fmt.Sprintf("after %s (err %v)", backend, err), d)
			}
		})
	}
}

// TestWriteMatchesReferenceOnRandomNetlists holds Write to the reference
// on seeded random netlists built to reach every corner of the bus and
// port logic (see randomDesign).
func TestWriteMatchesReferenceOnRandomNetlists(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		diffWrite(t, fmt.Sprintf("seed %d", seed), randomDesign(seed))
		if t.Failed() {
			return // one drifted seed is diagnosis enough
		}
	}
}

// randomDesign builds a two-module design from a seed: nets drawn from a
// pool of simple, escaped, reserved and bus-bit names (a scalar named
// like a bus base, duplicate indices a[1] and a[01], buses of buses),
// ports bound to same-named and to aliased nets, cells with some pins
// left open, a submodule instance with bus ports and unconnected bits,
// and pins set with SetConnUnchecked to nets of another module.
func randomDesign(seed int64) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	lib := stdcells.New(stdcells.HighSpeed)
	d := netlist.NewDesign("top", lib)
	pool := []string{
		"n1", "n2", "u_3", "q$1", "_t", "a/b", "1x", "$inv", "and", "buf", "wire", "x.y",
		"bus", "bus[0]", "bus[1]", "bus[3]", "a[1]", "a[01]", "a[2]", "a[1][0]", "a[1][1]",
		"w[2]", "w[5]", "o[0]", "o[1]", "d[0]", "d[1]", "d", "v[7]", "v[0]",
	}
	pick := func() string { return pool[rng.Intn(len(pool))] }

	sub := netlist.NewModule("sub")
	d.Modules[sub.Name] = sub
	for _, p := range []string{"d[1]", "d[0]", "en", "q[1]", "q[0]"} {
		dir := netlist.In
		if strings.HasPrefix(p, "q") {
			dir = netlist.Out
		}
		sub.AddPort(p, dir)
	}
	for i := 0; i < 2; i++ {
		g := sub.AddInst(fmt.Sprintf("b%d", i), lib.MustCell("AND2X1"))
		sub.MustConnect(g, "A", sub.Net(fmt.Sprintf("d[%d]", i)))
		sub.MustConnect(g, "B", sub.Net("en"))
		sub.MustConnect(g, "Z", sub.Net(fmt.Sprintf("q[%d]", i)))
	}

	m := d.Top
	for _, name := range pool {
		if rng.Intn(3) > 0 {
			m.EnsureNet(name)
		}
	}
	for k := rng.Intn(24); k > 0; k-- {
		name := pick()
		if m.Port(name) != nil {
			continue
		}
		dir := netlist.PinDir(rng.Intn(3))
		if rng.Intn(2) == 0 {
			m.AddPort(name, dir)
			continue
		}
		// An aliased port: bound to a net of another name.
		if n := m.Net(pick()); n != nil && n.Name != name {
			_, _ = m.AddPortOnNet(name, dir, n)
		}
	}
	var nets []*netlist.Net
	nets = append(nets, m.Nets...)
	cells := []string{"INVX1", "NAND2X1", "DFFQX1", "MUX2X1"}
	for k := 5 + rng.Intn(10); k > 0; k-- {
		name := pick()
		if rng.Intn(2) == 0 {
			name = fmt.Sprintf("g%d", k)
		}
		if m.Inst(name) != nil {
			continue
		}
		in := m.AddInst(name, lib.MustCell(cells[rng.Intn(len(cells))]))
		for _, p := range in.Cell.Pins {
			if rng.Intn(5) > 0 {
				_ = m.Connect(in, p.Name, nets[rng.Intn(len(nets))])
			}
		}
	}
	if s := "s" + pick(); m.Inst(s) == nil {
		in := m.AddSubInst(s, sub)
		for _, p := range sub.Ports {
			if rng.Intn(3) > 0 {
				_ = m.Connect(in, p.Name, nets[rng.Intn(len(nets))])
			}
		}
	}
	other := netlist.NewModule("other")
	for k := rng.Intn(3); k > 0; k-- {
		f := other.EnsureNet(pick())
		in := m.Insts[rng.Intn(len(m.Insts))]
		if in.Cell != nil {
			in.SetConnUnchecked(in.Cell.Pins[rng.Intn(len(in.Cell.Pins))].Name, f)
		} else {
			in.SetConnUnchecked(sub.Ports[rng.Intn(len(sub.Ports))].Name, f)
		}
	}
	return d
}

// TestWriteEscapesReservedAndSigilNames is the regression test for names
// other tools reject: a net named like a Verilog keyword and instances
// named "$inv" and "buf" are written escaped, and read back unchanged.
func TestWriteEscapesReservedAndSigilNames(t *testing.T) {
	l := lib()
	d := netlist.NewDesign("top", l)
	m := d.Top
	a := m.AddPort("a", netlist.In).Net
	z := m.AddPort("z", netlist.Out).Net
	and := m.AddNet("and")
	inv := m.AddInst("$inv", l.MustCell("INVX1"))
	m.MustConnect(inv, "A", a)
	m.MustConnect(inv, "Z", and)
	buf := m.AddInst("buf", l.MustCell("INVX1"))
	m.MustConnect(buf, "A", and)
	m.MustConnect(buf, "Z", z)

	out := Write(d)
	for _, want := range []string{"  wire \\and ;\n", "  INVX1 \\$inv  (.A(a), .Z(\\and ));\n", "  INVX1 \\buf  (.A(\\and ), .Z(z));\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	d2, err := Read(out, l, "")
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, out)
	}
	if d2.Top.Net("and") == nil || d2.Top.Inst("$inv") == nil || d2.Top.Inst("buf") == nil {
		t.Fatalf("names did not round-trip:\n%s", out)
	}
	if got := d2.Top.Inst("buf").Conn("A"); got == nil || got.Name != "and" {
		t.Fatalf("buf/A bound to %v after the round trip, want and", got)
	}
	if again := Write(d2); again != out {
		t.Fatalf("second write differs:\n%s\nvs\n%s", again, out)
	}
}

// TestSimpleIdent pins the identifier rule: IEEE 1364-2005 simple
// identifiers start with a letter or underscore and are not keywords.
func TestSimpleIdent(t *testing.T) {
	for name, want := range map[string]bool{
		"n1": true, "_t": true, "q$1": true, "AND": true, "Module": true, "wire_": true,
		"": false, "1x": false, "$inv": false, "a/b": false, "x.y": false, "a[0]": false,
		"and": false, "buf": false, "wire": false, "module": false, "uwire": false,
		"pulsestyle_ondetect": false, "endmodule": false, "xnor": false,
	} {
		if got := simpleIdent(name); got != want {
			t.Errorf("simpleIdent(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestWriteSizedExactly holds the writer's plan to its text: the size it
// grows the buffer to is the length it writes, so the buffer is grown
// once and never over-allocated.
func TestWriteSizedExactly(t *testing.T) {
	check := func(what string, d *netlist.Design) {
		w := &writer{shapes: map[*netlist.Module][]portGroup{}}
		mods := []*netlist.Module{d.Top}
		if sub := d.Modules["sub"]; sub != nil {
			mods = append(mods, sub)
		}
		for _, m := range mods {
			mw := w.plan(m)
			var sb strings.Builder
			mw.write(&sb)
			if sb.Len() != mw.size {
				t.Errorf("%s: module %s planned %d bytes, wrote %d", what, m.Name, mw.size, sb.Len())
			}
		}
	}
	for seed := int64(1); seed <= 100; seed++ {
		check(fmt.Sprintf("seed %d", seed), randomDesign(seed))
	}
	check(allocSpec, allocDesign(t))
}

// allocSpec is the design the allocation guard and BenchmarkWrite write:
// a 12,352-instance pre-grouped pipeline, a quarter of pipeline-50k's
// input size.
const allocSpec = "pipeline:depth=48,width=64,regions=4"

// maxAllocsPerInst bounds the objects one Write allocates per instance.
// The map-keyed writer allocated about 16 per instance on the converted
// pipeline-50k output; the dense one allocates its per-module tables.
const maxAllocsPerInst = 0.05

func allocDesign(tb testing.TB) *netlist.Design {
	tb.Helper()
	d, err := designs.ParseSpec(allocSpec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestWriteAllocsPerInst guards the dense writer: the text and a fixed
// set of tables, not objects per instance, net or name.
func TestWriteAllocsPerInst(t *testing.T) {
	d := allocDesign(t)
	allocs := testing.AllocsPerRun(3, func() { Write(d) })
	if per := allocs / float64(len(d.Top.Insts)); per >= maxAllocsPerInst {
		t.Fatalf("Write allocates %.0f objects for %d instances (%.3f per instance), want under %.2f",
			allocs, len(d.Top.Insts), per, maxAllocsPerInst)
	}
}

// BenchmarkWrite times one Write of allocSpec and reports its allocations
// per instance.
func BenchmarkWrite(b *testing.B) {
	d := allocDesign(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Write(d)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(len(d.Top.Insts))
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "objs/inst")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/inst")
	b.ReportMetric(float64(len(d.Top.Insts)), "instances")
}
