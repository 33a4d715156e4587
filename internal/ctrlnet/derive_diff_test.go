package ctrlnet_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/stdcells"
	_ "desync/internal/twophase" // registers the two-phase backend
	"desync/internal/verilog"
)

// diffDerive derives m afresh and with the reference derivation and fails
// on the first field that differs. Records are compared by identity.
func diffDerive(t *testing.T, what string, m *netlist.Module) *ctrlnet.Network {
	t.Helper()
	got := ctrlnet.DeriveFresh(m)
	want, wantLatch := ctrlnet.RefDerive(m)
	errorf := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s: %s", what, fmt.Sprintf(format, args...))
	}
	if !slices.Equal(got.Regions, want.Regions) {
		errorf("Regions %v, want %v", got.Regions, want.Regions)
	}
	if !slices.Equal(got.FFs, want.FFs) {
		errorf("%d FFs, want %d", len(got.FFs), len(want.FFs))
	}
	if len(got.Latches) != len(want.Latches) {
		errorf("%d latches, want %d", len(got.Latches), len(want.Latches))
		return got
	}
	for i, l := range got.Latches {
		w := want.Latches[i]
		if l.Inst != w.Inst || l.Enable != w.Enable || !slices.Equal(l.Roots, w.Roots) {
			errorf("latch %d (%s): enable %v roots %v, want %s enable %v roots %v",
				i, l.Inst.Name, l.Enable, l.Roots, w.Inst.Name, w.Enable, w.Roots)
			return got
		}
	}
	for _, in := range m.Insts {
		if g, w := got.Latch(in), wantLatch(in); (g == nil) != (w == nil) || g != nil && g.Inst != w.Inst {
			errorf("Latch(%s) = %v, want %v", in.Name, g, w)
		}
	}
	if len(got.Edges) != len(want.Edges) {
		errorf("%d edges, want %d", len(got.Edges), len(want.Edges))
	}
	for i := range min(len(got.Edges), len(want.Edges)) {
		if g, w := got.Edges[i], want.Edges[i]; g != w {
			errorf("edge %d: %s <- %s via %s (direct %v), want %s <- %s via %s (direct %v)",
				i, g.Sink.Name, g.Src.Name, g.Net.Name, g.Direct, w.Sink.Name, w.Src.Name, w.Net.Name, w.Direct)
			break
		}
	}
	for _, g := range want.Regions {
		if !slices.Equal(got.Succs[g], want.Succs[g]) || !slices.Equal(got.Preds[g], want.Preds[g]) {
			errorf("G%d: succs %v preds %v, want %v %v", g, got.Succs[g], got.Preds[g], want.Succs[g], want.Preds[g])
		}
		if *got.Controllers[g] != *want.Controllers[g] || *got.Channels[g] != *want.Channels[g] {
			errorf("G%d: controller or channel differs", g)
		}
		for _, trees := range [][2]map[int]*ctrlnet.CTree{{got.ReqTrees, want.ReqTrees}, {got.AckTrees, want.AckTrees}} {
			gt, wt := trees[0][g], trees[1][g]
			if (gt == nil) != (wt == nil) || gt != nil &&
				(gt.Prefix != wt.Prefix || !slices.Equal(gt.Members, wt.Members) || !slices.Equal(gt.Leaves, wt.Leaves)) {
				errorf("G%d: tree %+v, want %+v", g, gt, wt)
			}
		}
		for _, chains := range [][2]map[int]*ctrlnet.DelayChain{{got.ReqDelays, want.ReqDelays}, {got.MSDelays, want.MSDelays}} {
			gc, wc := chains[0][g], chains[1][g]
			if (gc == nil) != (wc == nil) || gc != nil && *gc != *wc {
				errorf("G%d: delay chain %+v, want %+v", g, gc, wc)
			}
		}
		if got.Completion[g] != want.Completion[g] {
			errorf("G%d: completion %v, want %v", g, got.Completion[g], want.Completion[g])
		}
	}
	if len(got.Succs) != len(want.Succs) || len(got.Preds) != len(want.Preds) {
		errorf("region graph keys %d/%d, want %d/%d", len(got.Succs), len(got.Preds), len(want.Succs), len(want.Preds))
	}
	if !slices.Equal(got.EnvRequests, want.EnvRequests) || !slices.Equal(got.EnvAcks, want.EnvAcks) {
		errorf("env ports %v %v, want %v %v", got.EnvRequests, got.EnvAcks, want.EnvRequests, want.EnvAcks)
	}
	return got
}

// diffInputs are the designs TestDeriveMatchesReferenceThroughFlow derives
// before and after Convert under both backends. "flat:" inputs are the
// generated design written as one flat module and read back, so Convert
// groups them automatically, one region per flip-flop.
var diffInputs = []struct {
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

func buildDiffInput(t *testing.T, spec string, v stdcells.Variant) (*netlist.Design, bool) {
	t.Helper()
	lib := stdcells.New(v)
	flat := strings.HasPrefix(spec, "flat:")
	spec = strings.TrimPrefix(spec, "flat:")
	d, err := designs.ParseSpec(spec, lib)
	if err != nil {
		t.Fatal(err)
	}
	if flat {
		if d, err = verilog.Read(verilog.Write(d), lib, ""); err != nil {
			t.Fatal(err)
		}
	}
	return d, !flat && designs.PreGrouped(spec)
}

// TestDeriveMatchesReferenceThroughFlow holds the derivation to the
// reference on the case studies and generated pipelines, as built and
// after Convert under both backends (a failed conversion, as the feistel
// designs' under the desync backend, is derived as the failure left it).
// Each desync output is also written and read back twice: the derivation
// on one copy must recover the same Group tags as the reference on the
// other.
func TestDeriveMatchesReferenceThroughFlow(t *testing.T) {
	for _, in := range diffInputs {
		t.Run(in.spec, func(t *testing.T) {
			d, manual := buildDiffInput(t, in.spec, in.lib)
			diffDerive(t, "as built", d.Top)
			for _, backend := range []string{core.BackendDesync, core.BackendTwoPhase} {
				d, _ := buildDiffInput(t, in.spec, in.lib)
				_, err := core.Convert(context.Background(), d, core.Options{Backend: backend, Period: in.period, ManualGroups: manual})
				n := diffDerive(t, fmt.Sprintf("after %s (err %v)", backend, err), d.Top)
				if backend == core.BackendDesync && n.Empty() {
					t.Errorf("no control network derived after %s", backend)
				}
				if backend != core.BackendDesync {
					continue
				}
				text := verilog.Write(d)
				a, errA := verilog.Read(text, d.Lib, "")
				b, errB := verilog.Read(text, d.Lib, "")
				if errA != nil || errB != nil {
					t.Fatalf("re-read: %v, %v", errA, errB)
				}
				diffDerive(t, "re-read", a.Top)
				ctrlnet.RefDerive(b.Top)
				for i, x := range a.Top.Insts {
					if y := b.Top.Insts[i]; x.Name != y.Name || x.Group != y.Group {
						t.Fatalf("re-read: %s recovered group %d, reference %s %d", x.Name, x.Group, y.Name, y.Group)
					}
				}
			}
		})
	}
}

// TestDeriveMatchesReferenceOnRandomNetlists holds the derivation to the
// reference on seeded random control networks (see randomControlNet):
// multi-root and rootless latch enables, combinational cycles in the
// enable and data logic, walks through control-named gates, and
// connections to nets and instances of another module.
func TestDeriveMatchesReferenceOnRandomNetlists(t *testing.T) {
	var multiRoot, rootless, foreignSrc, edges int
	for seed := int64(1); seed <= 400; seed++ {
		m, ext := randomControlNet(seed)
		n := diffDerive(t, fmt.Sprintf("seed %d", seed), m)
		if t.Failed() {
			return // one drifted seed is diagnosis enough
		}
		for _, l := range n.Latches {
			switch {
			case len(l.Roots) > 1:
				multiRoot++
			case len(l.Roots) == 0:
				rootless++
			}
		}
		for _, e := range n.Edges {
			edges++
			if e.Src.Name == ext {
				foreignSrc++
			}
		}
	}
	if multiRoot == 0 || rootless == 0 || foreignSrc == 0 || edges == 0 {
		t.Errorf("random networks missed a case: %d multi-root latches, %d rootless, %d foreign sources, %d edges",
			multiRoot, rootless, foreignSrc, edges)
	}
}

// randomControlNet builds a random module with the control network's
// naming: master and slave enable gates for a few regions, clock-gating
// logic over their outputs (with cycles), latches and flip-flops, and
// datapath gates wired at random (with cycles), some of them
// control-named. A latch of another module, named by the second result,
// drives a net the module reads through SetConnUnchecked, as does a
// foreign gate that reads the module back; one gate gets an undeclared
// pin the walks must skip.
func randomControlNet(seed int64) (*netlist.Module, string) {
	rng := rand.New(rand.NewSource(seed))
	lib := stdcells.New(stdcells.HighSpeed)
	m := netlist.NewModule("rnd")
	var enables, data []*netlist.Net
	enables = append(enables, m.AddPort("clk", netlist.In).Net)
	data = append(data, m.AddPort("din", netlist.In).Net)
	for g, regions := 1, 1+rng.Intn(4); g <= regions; g++ {
		for _, master := range []bool{true, false} {
			gate := m.AddInst(ctrlnet.CtrlGate(g, master, ctrlnet.GateG), lib.MustCell("CGMX1"))
			q := m.AddNet(ctrlnet.CtrlGate(g, master, "q"))
			m.MustConnect(gate, "Q", q)
			enables = append(enables, q)
		}
	}
	pick := func(nets []*netlist.Net) *netlist.Net { return nets[rng.Intn(len(nets))] }
	// wire connects every input of the gates to a random pool net once all
	// outputs exist, so later gates feed earlier ones.
	wire := func(gates []*netlist.Inst, pool *[]*netlist.Net) {
		for _, g := range gates {
			for _, p := range g.Cell.Pins {
				if p.Dir == netlist.In && g.Conn(p.Name) == nil {
					_ = m.Connect(g, p.Name, pick(*pool))
				}
			}
		}
	}
	var gating []*netlist.Inst
	gateCells := []string{"AND2X1", "OR2X1", "INVX1", "NAND2X1"}
	for k, n := 0, 2+rng.Intn(5); k < n; k++ {
		g := m.AddInst(fmt.Sprintf("cg%d", k), lib.MustCell(gateCells[rng.Intn(len(gateCells))]))
		out := m.AddNet(fmt.Sprintf("en%d", k))
		m.MustConnect(g, "Z", out)
		gating = append(gating, g)
		enables = append(enables, out)
	}
	wire(gating, &enables)

	seqCells := []string{"LATQX1", "LATQX1", "LATRQX1", "DFFQX1"}
	var seqs []*netlist.Inst
	for k, n := 0, 3+rng.Intn(8); k < n; k++ {
		cell := lib.MustCell(seqCells[rng.Intn(len(seqCells))])
		r := m.AddInst(fmt.Sprintf("r%d", k), cell)
		q := m.AddNet(fmt.Sprintf("q%d", k))
		m.MustConnect(r, "Q", q)
		data = append(data, q)
		if rng.Intn(8) > 0 {
			m.MustConnect(r, cell.Seq.ClockPin, pick(enables))
		}
		seqs = append(seqs, r)
	}
	var logic []*netlist.Inst
	dataCells := []string{"AND2X1", "XOR2X1", "INVX1", "MUX2X1", "BUFX1", "AOI21X1"}
	for k, n := 0, 4+rng.Intn(12); k < n; k++ {
		name := fmt.Sprintf("u%d", k)
		if rng.Intn(6) == 0 {
			name = ctrlnet.Name(1, fmt.Sprintf("x%d", k)) // a control-named gate stops the walk
		}
		g := m.AddInst(name, lib.MustCell(dataCells[rng.Intn(len(dataCells))]))
		out := m.AddNet(fmt.Sprintf("d%d", k))
		m.MustConnect(g, "Z", out)
		logic = append(logic, g)
		data = append(data, out)
	}
	wire(logic, &data)
	for _, r := range seqs {
		for _, p := range r.Cell.Pins {
			if p.Dir == netlist.In && r.Conn(p.Name) == nil && rng.Intn(6) > 0 {
				_ = m.Connect(r, p.Name, pick(data))
			}
		}
	}

	// Another module: its latch drives a net the module reads, and its gate
	// reads the module's nets and drives a net the module reads.
	const ext = "ext_l"
	other := netlist.NewModule("other")
	fl := other.AddInst(ext, lib.MustCell("LATQX1"))
	fq := other.AddNet("fq")
	other.MustConnect(fl, "Q", fq)
	fg := other.AddInst("ext_g", lib.MustCell("AND2X1"))
	fz := other.AddNet("fz")
	other.MustConnect(fg, "Z", fz)
	fg.SetConnUnchecked("A", pick(data))
	fg.SetConnUnchecked("B", fq)
	for _, f := range []*netlist.Net{fq, fz} {
		if rng.Intn(3) > 0 {
			g := logic[rng.Intn(len(logic))]
			g.SetConnUnchecked("A", f)
		}
	}
	logic[rng.Intn(len(logic))].SetConnUnchecked("X", pick(data))
	return m, ext
}
