package netlist

import (
	"testing"

	"desync/internal/logic"
)

// tinyLib builds a minimal library for structural tests.
func tinyLib() *Library {
	lib := NewLibrary("tiny", "HS")
	lib.Add(&CellDef{
		Name: "INV", Kind: KindComb, Area: 1,
		Pins:      []PinDef{{Name: "A", Dir: In}, {Name: "Z", Dir: Out}},
		Functions: map[string]*logic.Expr{"Z": logic.MustParseExpr("!A")},
		Arcs:      []TimingArc{{From: "A", To: "Z", Rise: Delay{0.01, 0.03}, Fall: Delay{0.01, 0.03}}},
	})
	lib.Add(&CellDef{
		Name: "BUF", Kind: KindComb, Area: 1,
		Pins:      []PinDef{{Name: "A", Dir: In}, {Name: "Z", Dir: Out}},
		Functions: map[string]*logic.Expr{"Z": logic.MustParseExpr("A")},
		Arcs:      []TimingArc{{From: "A", To: "Z", Rise: Delay{0.01, 0.03}, Fall: Delay{0.01, 0.03}}},
	})
	lib.Add(&CellDef{
		Name: "AND2", Kind: KindComb, Area: 2,
		Pins:      []PinDef{{Name: "A", Dir: In}, {Name: "B", Dir: In}, {Name: "Z", Dir: Out}},
		Functions: map[string]*logic.Expr{"Z": logic.MustParseExpr("A&B")},
		Arcs: []TimingArc{
			{From: "A", To: "Z", Rise: Delay{0.02, 0.06}, Fall: Delay{0.02, 0.06}},
			{From: "B", To: "Z", Rise: Delay{0.02, 0.06}, Fall: Delay{0.02, 0.06}},
		},
	})
	lib.Add(&CellDef{
		Name: "DFF", Kind: KindFF, Area: 5,
		Pins: []PinDef{
			{Name: "D", Dir: In}, {Name: "CK", Dir: In, Class: ClassClock},
			{Name: "Q", Dir: Out, Class: ClassOutput},
		},
		Seq:  &SeqSpec{Next: logic.Var("D"), ClockPin: "CK", Q: "Q"},
		Arcs: []TimingArc{{From: "CK", To: "Q", Rise: Delay{0.05, 0.15}, Fall: Delay{0.05, 0.15}}},
	})
	return lib
}

func TestLibraryLookup(t *testing.T) {
	lib := tinyLib()
	if _, err := lib.Cell("INV"); err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Cell("NONE"); err == nil {
		t.Fatal("expected error for missing cell")
	}
	inv := lib.MustCell("INV")
	if p := inv.Pin("A"); p == nil || p.Dir != In {
		t.Fatal("pin lookup failed")
	}
	if p := inv.Pin("nope"); p != nil {
		t.Fatal("expected nil for unknown pin")
	}
}

func TestBufferLikeDetection(t *testing.T) {
	lib := tinyLib()
	if inv, ok := lib.MustCell("INV").IsBufferLike(); !ok || !inv {
		t.Fatal("INV should be inverting buffer-like")
	}
	if inv, ok := lib.MustCell("BUF").IsBufferLike(); !ok || inv {
		t.Fatal("BUF should be non-inverting buffer-like")
	}
	if _, ok := lib.MustCell("AND2").IsBufferLike(); ok {
		t.Fatal("AND2 is not buffer-like")
	}
	if _, ok := lib.MustCell("DFF").IsBufferLike(); ok {
		t.Fatal("DFF is not buffer-like")
	}
}

func TestConnectivity(t *testing.T) {
	lib := tinyLib()
	m := NewModule("top")
	m.AddPort("a", In)
	m.AddPort("b", In)
	m.AddPort("z", Out)
	g := m.AddInst("g1", lib.MustCell("AND2"))
	m.MustConnect(g, "A", m.Net("a"))
	m.MustConnect(g, "B", m.Net("b"))
	m.MustConnect(g, "Z", m.Net("z"))

	if errs := m.Check(); len(errs) != 0 {
		t.Fatalf("check failed: %v", errs)
	}
	if m.Net("z").Driver.Inst != g {
		t.Fatal("driver not recorded")
	}
	if len(m.Net("a").Sinks) != 1 || m.Net("a").Sinks[0].Inst != g {
		t.Fatal("sink not recorded")
	}
	// Double-driving is rejected.
	g2 := m.AddInst("g2", lib.MustCell("INV"))
	m.MustConnect(g2, "A", m.Net("a"))
	if err := m.Connect(g2, "Z", m.Net("z")); err == nil {
		t.Fatal("expected double-driver error")
	}
}

func TestCheckFindsProblems(t *testing.T) {
	lib := tinyLib()
	m := NewModule("top")
	m.AddPort("a", In)
	g := m.AddInst("g1", lib.MustCell("INV"))
	m.MustConnect(g, "A", m.Net("a"))
	// Z left unconnected.
	errs := m.Check()
	if len(errs) != 1 {
		t.Fatalf("want 1 error, got %v", errs)
	}
	// A net with sinks but no driver.
	n := m.AddNet("dangling")
	g2 := m.AddInst("g2", lib.MustCell("INV"))
	m.MustConnect(g2, "A", n)
	errs = m.Check()
	if len(errs) != 3 { // g1/Z, g2/Z unconnected + dangling driverless
		t.Fatalf("want 3 errors, got %v", errs)
	}
}

func TestDisconnectAndRemove(t *testing.T) {
	lib := tinyLib()
	m := NewModule("top")
	a := m.AddNet("a")
	z := m.AddNet("z")
	g := m.AddInst("g1", lib.MustCell("INV"))
	m.MustConnect(g, "A", a)
	m.MustConnect(g, "Z", z)
	m.RemoveInst(g)
	if a.HasDriver() || len(a.Sinks) != 0 || z.HasDriver() {
		t.Fatal("remove did not clean connections")
	}
	if err := m.RemoveNet(a); err != nil {
		t.Fatal(err)
	}
	if m.Net("a") != nil {
		t.Fatal("net still present")
	}
}

// An input port on a net that already has a driver is rejected whole: the
// port is not declared and the module is unchanged.
func TestAddPortOnNetRejectsDrivenNet(t *testing.T) {
	m := NewModule("top")
	a := m.AddPort("a", In).Net
	seq := m.ModSeq()
	if _, err := m.AddPortOnNet("a2", In, a); err == nil {
		t.Fatal("expected an error for an input port on a driven net")
	}
	if m.ModSeq() != seq || len(m.Ports) != 1 || m.Port("a2") != nil || a.Driver.Pin != "a" {
		t.Fatalf("rejected port half-applied: modseq %d→%d, ports %d, driver %s", seq, m.ModSeq(), len(m.Ports), a.Driver)
	}
	if errs := m.Validate(ValidateOptions{}); len(errs) != 0 {
		t.Fatalf("module invalid after a rejected port: %v", errs)
	}
	// An output port on the same net is fine.
	if p, err := m.AddPortOnNet("a_out", Out, a); err != nil || p.Net != a || len(a.Sinks) != 1 {
		t.Fatalf("output port on a driven net: %v", err)
	}
}

func TestReplaceSinks(t *testing.T) {
	lib := tinyLib()
	m := NewModule("top")
	m.AddPort("out", Out)
	from := m.AddNet("from")
	to := m.AddNet("to")
	g := m.AddInst("g1", lib.MustCell("INV"))
	m.MustConnect(g, "A", from)
	// Module output port sinks "from" too: simulate by moving the port net.
	p := m.Port("out")
	p.Net = from
	from.Sinks = append(from.Sinks, PinRef{Pin: "out"})

	m.ReplaceSinks(from, to)
	if g.Conn("A") != to {
		t.Fatal("instance sink not moved")
	}
	if p.Net != to {
		t.Fatal("port sink not moved")
	}
	if len(from.Sinks) != 0 || len(to.Sinks) != 2 {
		t.Fatal("sink lists wrong")
	}
}

func TestBusBase(t *testing.T) {
	cases := []struct {
		in   string
		base string
		idx  int
		ok   bool
	}{
		{"data[3]", "data", 3, true},
		{"data[15]", "data", 15, true},
		{"data_3", "", 0, false},
		{"data[]", "", 0, false},
		{"data[a]", "", 0, false},
		{"plain", "", 0, false},
		{"x[1][2]", "x[1]", 2, true},
	}
	for _, c := range cases {
		b, i, ok := BusBase(c.in)
		if ok != c.ok || b != c.base || i != c.idx {
			t.Errorf("BusBase(%q) = %q,%d,%v want %q,%d,%v", c.in, b, i, ok, c.base, c.idx, c.ok)
		}
	}
}

func TestStats(t *testing.T) {
	lib := tinyLib()
	m := NewModule("top")
	a := m.AddNet("a")
	b := m.AddNet("b")
	z := m.AddNet("z")
	q := m.AddNet("q")
	ck := m.AddNet("ck")
	g := m.AddInst("g1", lib.MustCell("AND2"))
	m.MustConnect(g, "A", a)
	m.MustConnect(g, "B", b)
	m.MustConnect(g, "Z", z)
	f := m.AddInst("f1", lib.MustCell("DFF"))
	m.MustConnect(f, "D", z)
	m.MustConnect(f, "CK", ck)
	m.MustConnect(f, "Q", q)

	s := m.ComputeStats()
	if s.Cells != 2 || s.Nets != 5 || s.FFs != 1 || s.CombGates != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.CellArea != 7 || s.SeqArea != 5 || s.CombArea != 2 {
		t.Fatalf("areas wrong: %+v", s)
	}
}

func TestFlatten(t *testing.T) {
	lib := tinyLib()
	// Submodule: two inverters in series.
	sub := NewModule("stage")
	sub.AddPort("in", In)
	sub.AddPort("out", Out)
	mid := sub.AddNet("mid")
	i1 := sub.AddInst("i1", lib.MustCell("INV"))
	i2 := sub.AddInst("i2", lib.MustCell("INV"))
	sub.MustConnect(i1, "A", sub.Net("in"))
	sub.MustConnect(i1, "Z", mid)
	sub.MustConnect(i2, "A", mid)
	sub.MustConnect(i2, "Z", sub.Net("out"))

	d := NewDesign("top", lib)
	d.Top.AddPort("a", In)
	d.Top.AddPort("y", Out)
	link := d.Top.AddNet("link")
	s1 := d.Top.AddSubInst("s1", sub)
	s2 := d.Top.AddSubInst("s2", sub)
	d.Top.MustConnect(s1, "in", d.Top.Net("a"))
	d.Top.MustConnect(s1, "out", link)
	d.Top.MustConnect(s2, "in", link)
	d.Top.MustConnect(s2, "out", d.Top.Net("y"))

	if err := d.Flatten(true); err != nil {
		t.Fatal(err)
	}
	if len(d.Top.Insts) != 4 {
		t.Fatalf("want 4 flat instances, got %d", len(d.Top.Insts))
	}
	if errs := d.Top.Check(); len(errs) != 0 {
		t.Fatalf("flattened module broken: %v", errs)
	}
	// Group assignment from hierarchy: s1 cells group 1, s2 cells group 2.
	g1 := d.Top.Inst("s1/i1")
	g2 := d.Top.Inst("s2/i2")
	if g1 == nil || g2 == nil {
		t.Fatal("prefixed instances missing")
	}
	if g1.Group != 1 || g2.Group != 2 {
		t.Fatalf("groups wrong: %d %d", g1.Group, g2.Group)
	}
	// Connectivity preserved: a -> s1/i1 -> s1/mid -> s1/i2 -> link ...
	if d.Top.Inst("s1/i2").Conn("Z") != d.Top.Net("link") {
		t.Fatal("port binding to outer net lost")
	}
	if d.Top.Net("s1/mid") == nil {
		t.Fatal("internal net not prefixed")
	}
}

func TestDelayCorners(t *testing.T) {
	d := Delay{1, 3}
	if d.At(Best) != 1 || d.At(Worst) != 3 {
		t.Fatal("corner selection wrong")
	}
	s := d.Scale(2)
	if s.Best != 2 || s.Worst != 6 {
		t.Fatal("scale wrong")
	}
	if Best.String() != "best" || Worst.String() != "worst" {
		t.Fatal("corner names wrong")
	}
}
