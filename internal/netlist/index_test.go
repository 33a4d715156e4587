package netlist

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// indexTestCell returns a buffer cell of a one-cell library.
func indexTestCell() *CellDef {
	return NewLibrary("tl", "HS").Add(&CellDef{
		Name: "BUF", Kind: KindComb, Area: 1,
		Pins: []PinDef{{Name: "A", Dir: In}, {Name: "Z", Dir: Out}},
	})
}

// panicText runs f and returns what it panicked with, or "" if it returned.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestNameIndexMatchesMap holds the name index to a map[string] reference
// over seeded random mutation sequences. Each sequence first grows the
// module to several hundred nets and instances (several table doublings),
// then mixes every mutator, inside and outside bulk sections, and last
// drains most records again. After every step Validate must find the module
// clean (and, every 97 steps, so must the diagnostic pass), and every lookup
// of a present, removed or never-added name must answer what the map
// answers.
func TestNameIndexMatchesMap(t *testing.T) {
	buf := indexTestCell()
	const pool, steps = 900, 4000
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewModule("diff")
		nets := map[string]*Net{}
		insts := map[string]*Inst{}
		pick := func(prefix string) string { return prefix + strconv.Itoa(rng.Intn(pool)) }
		maxNetSlots, maxInstSlots := 0, 0
		var did string
		for step := range steps {
			// Phase bias: mostly adds, then a mix, then mostly removals.
			addBias := 70
			switch {
			case step >= 3*steps/4:
				addBias = 15
			case step >= steps/3:
				addBias = 45
			}
			switch r := rng.Intn(100); {
			case r < addBias/3:
				name := pick("n")
				did = "AddNet " + name
				_, dup := nets[name]
				var n *Net
				msg := panicText(func() { n = m.AddNet(name) })
				want := ""
				if dup {
					want = fmt.Sprintf("netlist: duplicate net %q in module diff", name)
				} else {
					nets[name] = n
				}
				if msg != want {
					t.Fatalf("seed %d step %d: AddNet(%q) panicked with %q, want %q", seed, step, name, msg, want)
				}
			case r < 2*addBias/3:
				name := pick("u")
				did = "AddInst " + name
				_, dup := insts[name]
				var in *Inst
				msg := panicText(func() { in = m.AddInst(name, buf) })
				want := ""
				if dup {
					want = fmt.Sprintf("netlist: duplicate instance %q in module diff", name)
				} else {
					insts[name] = in
				}
				if msg != want {
					t.Fatalf("seed %d step %d: AddInst(%q) panicked with %q, want %q", seed, step, name, msg, want)
				}
			case r < addBias:
				name := pick("n")
				did = "EnsureNet " + name
				n := m.EnsureNet(name)
				if old, ok := nets[name]; ok && n != old {
					t.Fatalf("seed %d step %d: EnsureNet(%q) made a second net", seed, step, name)
				}
				nets[name] = n
			case r < addBias+20:
				if len(nets) == 0 {
					continue
				}
				n := anyOf(rng, m.Nets, func(n *Net) bool { return nets[n.Name] == n })
				did = "RemoveNet " + n.Name
				if err := m.RemoveNet(n); err != nil {
					t.Fatalf("seed %d step %d: RemoveNet(%s): %v", seed, step, n.Name, err)
				}
				delete(nets, n.Name)
			case r < addBias+35:
				if len(insts) == 0 {
					continue
				}
				in := anyOf(rng, m.Insts, func(in *Inst) bool { return insts[in.Name] == in })
				did = "RemoveInst " + in.Name
				m.RemoveInst(in)
				delete(insts, in.Name)
			case r < addBias+45:
				if len(nets) == 0 {
					continue
				}
				n := anyOf(rng, m.Nets, func(n *Net) bool { return nets[n.Name] == n })
				from, to := n.Name, pick("n")
				did = "RenameNet " + from + " " + to
				err := m.RenameNet(n, to)
				if _, taken := nets[to]; taken != (err != nil) {
					t.Fatalf("seed %d step %d: RenameNet(%s, %s) = %v, name taken %v", seed, step, from, to, err, taken)
				}
				if err == nil {
					delete(nets, from)
					nets[to] = n
				}
			default:
				// Bulk sections: removals inside them defer compaction.
				if m.bulkDepth == 0 {
					did = "BeginBulk"
					m.BeginBulk()
				} else {
					did = "EndBulk"
					m.EndBulk()
				}
			}
			for range 3 {
				name := pick("n")
				if rng.Intn(4) == 0 {
					name = "never" + name
				}
				if got := m.Net(name); got != nets[name] {
					t.Fatalf("seed %d step %d (%s): Net(%q) = %v, want %v", seed, step, did, name, got, nets[name])
				}
				name = pick("u")
				if got := m.Inst(name); got != insts[name] {
					t.Fatalf("seed %d step %d (%s): Inst(%q) = %v, want %v", seed, step, did, name, got, insts[name])
				}
			}
			if errs := m.Validate(ValidateOptions{}); len(errs) != 0 {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, did, errs)
			}
			if step%97 == 0 {
				if errs := m.validateFull(ValidateOptions{}); len(errs) != 0 {
					t.Fatalf("seed %d step %d (%s): diagnostic pass: %v", seed, step, did, errs)
				}
			}
			if len(m.Nets) != len(nets) || len(m.Insts) != len(insts) {
				t.Fatalf("seed %d step %d (%s): module holds %d nets and %d instances, want %d and %d",
					seed, step, did, len(m.Nets), len(m.Insts), len(nets), len(insts))
			}
			maxNetSlots = max(maxNetSlots, len(m.netNames.slots))
			maxInstSlots = max(maxInstSlots, len(m.instNames.slots))
		}
		for name, n := range nets {
			if m.Net(name) != n {
				t.Fatalf("seed %d: net %q lost at the end", seed, name)
			}
		}
		// Four doublings at least, from the first table of 16 slots.
		if maxNetSlots < 16*minIndexSlots || maxInstSlots < 16*minIndexSlots {
			t.Fatalf("seed %d: tables peaked at %d and %d slots: too few growths", seed, maxNetSlots, maxInstSlots)
		}
	}
}

// anyOf returns a random element of xs that keep accepts (xs may still hold
// records removed inside a bulk section).
func anyOf[T any](rng *rand.Rand, xs []T, keep func(T) bool) T {
	for {
		if x := xs[rng.Intn(len(xs))]; keep(x) {
			return x
		}
	}
}

// TestForeignRecordsLeaveModulesAlone asks a module to remove another
// module's instance and net, and to rename another module's net, all
// named like its own records. Both modules must stay as they were:
// RemoveInst does nothing, RemoveNet and RenameNet return an error. A record
// already removed from the module is foreign to it too.
func TestForeignRecordsLeaveModulesAlone(t *testing.T) {
	buf := indexTestCell()
	build := func(name string) *Module {
		m := NewModule(name)
		m.AddInst("u1", buf)
		m.AddNet("n1")
		m.AddNet("n2")
		return m
	}
	m, o := build("m"), build("o")
	ou1, on1, on2 := o.Inst("u1"), o.Net("n1"), o.Net("n2")
	m.RemoveInst(ou1)
	if err := m.RemoveNet(on1); err == nil {
		t.Error("RemoveNet of another module's net returned no error")
	}
	if err := m.RenameNet(on2, "n3"); err == nil {
		t.Error("RenameNet of another module's net returned no error")
	}
	for _, x := range []*Module{m, o} {
		if errs := x.Validate(ValidateOptions{}); len(errs) != 0 {
			t.Errorf("module %s: %v", x.Name, errs)
		}
		if x.Inst("u1") == nil || x.Net("n1") == nil || x.Net("n2") == nil || x.Net("n3") != nil {
			t.Errorf("module %s: names changed: u1 %v, n1 %v, n2 %v, n3 %v",
				x.Name, x.Inst("u1"), x.Net("n1"), x.Net("n2"), x.Net("n3"))
		}
	}
	if on2.Name != "n2" || len(o.Insts) != 1 || o.Insts[0] != ou1 {
		t.Errorf("the other module's records changed: net %q, instances %v", on2.Name, o.Insts)
	}

	// A removed record: removing or renaming it again must not reach the
	// record that took its name.
	u1, n1 := m.Inst("u1"), m.Net("n1")
	m.RemoveInst(u1)
	if err := m.RemoveNet(n1); err != nil {
		t.Fatal(err)
	}
	nu1, nn1 := m.AddInst("u1", buf), m.AddNet("n1")
	m.RemoveInst(u1)
	if err := m.RemoveNet(n1); err == nil {
		t.Error("RemoveNet of a removed net returned no error")
	}
	if err := m.RenameNet(n1, "n4"); err == nil {
		t.Error("RenameNet of a removed net returned no error")
	}
	if m.Inst("u1") != nu1 || m.Net("n1") != nn1 || m.Net("n4") != nil {
		t.Errorf("a removed record reached its successor: u1 %v, n1 %v, n4 %v", m.Inst("u1"), m.Net("n1"), m.Net("n4"))
	}
	if errs := m.Validate(ValidateOptions{}); len(errs) != 0 {
		t.Errorf("after removing removed records: %v", errs)
	}
}
