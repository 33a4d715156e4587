package designs

import (
	"fmt"
	"testing"
	"testing/quick"

	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/sim"
)

// driveBus drives the bit-blasted input bus base[0..width) with value.
func driveBus(s *sim.Simulator, base string, width int, value uint64, at float64) error {
	for i := 0; i < width; i++ {
		if err := s.Drive(netlist.BusBit(base, i), logic.FromBool(value>>uint(i)&1 == 1), at); err != nil {
			return err
		}
	}
	return nil
}

// evalBlock builds a circuit from the builder callback, drives the named
// input buses, settles, and returns the output bus value.
func evalBlock(t *testing.T, width int, nIn int, construct func(b *Builder, ins []Bus) Bus, vals []uint64) uint64 {
	t.Helper()
	b := NewBuilder("blk", hs())
	ins := make([]Bus, nIn)
	for i := range ins {
		ins[i] = b.InputBus(fmt.Sprintf("x%d", i), width)
	}
	out := construct(b, ins)
	for i, n := range out {
		o := b.M.AddPort(fmt.Sprintf("y[%d]", i), netlist.Out).Net
		b.Gate("BUFX1", n, o)
	}
	if errs := b.M.Check(); len(errs) > 0 {
		t.Fatalf("check: %v", errs[0])
	}
	s, err := sim.New(b.M, sim.Config{Corner: netlist.Best})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		if err := driveBus(s, fmt.Sprintf("x%d", i), width, vals[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	v := s.Vector("y", len(out))
	if !v.Known() {
		t.Fatalf("output unknown: %v", v)
	}
	return v.Uint()
}

// Property: the ripple adder computes modular addition for random operands.
func TestQuickAdder(t *testing.T) {
	const w = 16
	f := func(a, b uint16) bool {
		got := evalBlock(t, w, 2, func(bl *Builder, ins []Bus) Bus {
			s := bl.Adder(ins[0], ins[1], nil)
			return s
		}, []uint64{uint64(a), uint64(b)})
		return uint16(got) == a+b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: two's-complement subtraction.
func TestQuickSub(t *testing.T) {
	const w = 16
	f := func(a, b uint16) bool {
		got := evalBlock(t, w, 2, func(bl *Builder, ins []Bus) Bus {
			s := bl.Sub(ins[0], ins[1])
			return s
		}, []uint64{uint64(a), uint64(b)})
		return uint16(got) == a-b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the incrementer.
func TestQuickInc(t *testing.T) {
	const w = 12
	f := func(a uint16) bool {
		a &= 1<<w - 1
		got := evalBlock(t, w, 1, func(bl *Builder, ins []Bus) Bus {
			return bl.Inc(ins[0])
		}, []uint64{uint64(a)})
		return uint16(got) == (a+1)&(1<<w-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the barrel shifter is a left shift modulo the bus width.
func TestQuickBarrel(t *testing.T) {
	const w = 16
	f := func(a uint16, sh uint8) bool {
		shift := uint64(sh) & 15
		got := evalBlock(t, w, 2, func(bl *Builder, ins []Bus) Bus {
			return bl.barrel(ins[0], Bus(ins[1][:4]))
		}, []uint64{uint64(a), shift})
		return uint16(got) == a<<shift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the multiplier tree computes the full product.
func TestQuickMultiplier(t *testing.T) {
	f := func(a, b uint8) bool {
		got := evalBlock(t, 8, 2, func(bl *Builder, ins []Bus) Bus {
			return bl.multiplier(ins[0], ins[1])
		}, []uint64{uint64(a), uint64(b)})
		return uint16(got) == uint16(a)*uint16(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ROM returns the stored word for every address.
func TestQuickRom(t *testing.T) {
	f := func(seed uint32) bool {
		words := make([]uint64, 16)
		x := uint64(seed) | 1
		for i := range words {
			x = x*6364136223846793005 + 1442695040888963407
			words[i] = x >> 32 & 0xffff
		}
		b := NewBuilder("rom", hs())
		addr := b.InputBus("a", 4)
		out := b.NewBus("romq", 16)
		b.Rom(addr, words, 16, out)
		for i, n := range out {
			o := b.M.AddPort(fmt.Sprintf("y[%d]", i), netlist.Out).Net
			b.Gate("BUFX1", n, o)
		}
		s, err := sim.New(b.M, sim.Config{Corner: netlist.Best})
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < 16; a++ {
			if err := driveBus(s, "a", 4, uint64(a), s.Now()+1); err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntilQuiescent(); err != nil {
				t.Fatal(err)
			}
			if got := s.Vector("y", 16).Uint(); got != words[a] {
				t.Logf("addr %d: rom %04x want %04x", a, got, words[a])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// Property: MuxTree selects exactly inputs[sel].
func TestQuickMuxTree(t *testing.T) {
	f := func(a, b, c, d uint16, sel uint8) bool {
		vals := []uint64{uint64(a), uint64(b), uint64(c), uint64(d)}
		s := uint64(sel) & 3
		bl := NewBuilder("mt", hs())
		var ins []Bus
		for i := 0; i < 4; i++ {
			ins = append(ins, bl.InputBus(fmt.Sprintf("x%d", i), 16))
		}
		selBus := bl.InputBus("s", 2)
		out := bl.MuxTree(ins, selBus)
		for i, n := range out {
			o := bl.M.AddPort(fmt.Sprintf("y[%d]", i), netlist.Out).Net
			bl.Gate("BUFX1", n, o)
		}
		sm, err := sim.New(bl.M, sim.Config{Corner: netlist.Best})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			driveBus(sm, fmt.Sprintf("x%d", i), 16, vals[i], 0)
		}
		driveBus(sm, "s", 2, s, 0)
		sm.RunUntilQuiescent()
		return sm.Vector("y", 16).Uint() == vals[s]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the golden model's PC stays within the ROM address space and
// the model is deterministic.
func TestQuickModelDeterminism(t *testing.T) {
	f := func(n uint8) bool {
		steps := int(n%64) + 1
		m1 := NewModel(TestProgram())
		m2 := NewModel(TestProgram())
		m1.Run(steps)
		m2.Run(steps)
		if m1.PC != m2.PC || m1.Regs != m2.Regs || m1.DMem != m2.DMem {
			return false
		}
		return m1.PC < 1<<PCBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

var _ = logic.H // keep the import for helpers above
