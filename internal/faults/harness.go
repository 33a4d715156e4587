package faults

// The simulation harness (§4.8): a driver that starts a design running, and
// an oracle deciding flow equivalence (§2.1) against the synchronous design.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"desync/internal/ctrlnet"
	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/sim"
)

// Driver timing (ns): datapath resets release at dpRelease, the backend
// reset a ns later at the earliest, the first environment request envKick
// after that. The producer drops a request reqDrop after its acknowledge
// rises; once it falls, the next vector follows dataSetup later and the
// next request reqAfter later. The consumer echoes requests dataSetup later.
const (
	dpRelease = 1.0
	envKick   = 1.5
	reqDrop   = 0.1
	dataSetup = 0.2
	reqAfter  = 1.0
)

// Driver starts one design running in a simulator. It classifies the
// input ports once: the backend reset; boundary regions' environment ports
// (held low, then answered by an eager 4-phase producer and consumer); the
// flip-flops' clock (held low); delsel taps, set from a selection;
// datapath resets by name (rstn, rst_n, resetn, reset_n pulse low, other
// rst and reset names high); and data inputs, the rest. Data inputs idle
// low, or follow an input stream whose vector k puts its bit i on the i-th
// data input: vector 0 from time zero, vector k+1 dataSetup after the k-th
// token of every region that reads data inputs. A region's token is its
// environment acknowledge falling or, with no environment port (two-phase,
// or a desync input region with a self-edge), its master enable falling.
// With a stream the producer requests once per vector; without, forever.
// A Driver is immutable: Start may run on many simulators at once.
type Driver struct {
	release      float64 // when the backend reset falls
	clock        string  // the flip-flops' clock port
	drives       []drive
	data, tokens []string // data inputs; per input region, its token net
	reqs, acks   [][2]string
	stream       []uint64
}

type drive struct {
	port string
	v    logic.V
	at   float64
}

// NewDriver classifies m's input ports for the reset contract rst, the
// delay-tap selection sel and an input stream (nil: data inputs idle low).
func NewDriver(m *netlist.Module, rst ctrlnet.Reset, sel int, stream []uint64) *Driver {
	return newDriver(m, rst, sel, stream, "")
}

// newDriver is NewDriver holding clock low unless m has a flip-flop to name
// its clock: a converted design has none left, yet may keep the port.
func newDriver(m *netlist.Module, rst ctrlnet.Reset, sel int, stream []uint64, clock string) *Driver {
	d := &Driver{release: max(rst.Width, dpRelease+1), clock: clock, stream: stream}
	for _, in := range m.Insts {
		if in.Cell != nil && in.Cell.Kind == netlist.KindFF {
			if n := in.Conn(in.Cell.Seq.ClockPin); n != nil {
				d.clock = n.Name // a port's net carries its name
			}
			break
		}
	}
	pulse := func(p string, v logic.V, at float64) {
		d.drives = append(d.drives, drive{p, v, 0}, drive{p, v.Not(), at})
	}
	for _, p := range m.Ports {
		_, idx, isBus := netlist.BusBase(p.Name)
		lower := strings.ToLower(p.Name)
		g, _ := ctrlnet.Region(p.Name)
		v := logic.L
		switch {
		case p.Dir != netlist.In:
			continue
		case p.Name == rst.Port:
			pulse(p.Name, logic.H, d.release)
			continue
		case p.Name == ctrlnet.EnvRequestPort(g):
			d.reqs = append(d.reqs, [2]string{p.Name, ctrlnet.EnvReqAckPort(g)})
			pulse(p.Name, logic.L, d.release+envKick) // the first request
			continue
		case p.Name == ctrlnet.EnvAckPort(g):
			d.acks = append(d.acks, [2]string{p.Name, ctrlnet.EnvReadyPort(g)})
		case p.Name == d.clock:
		case strings.Contains(lower, "delsel"):
			v = logic.FromBool(isBus && sel >= 0 && sel>>uint(idx)&1 == 1)
		case strings.Contains(lower, "rstn") || strings.Contains(lower, "rst_n") ||
			strings.Contains(lower, "resetn") || strings.Contains(lower, "reset_n"):
			pulse(p.Name, logic.L, dpRelease)
			continue
		case strings.Contains(lower, "rst") || strings.Contains(lower, "reset"):
			pulse(p.Name, logic.H, dpRelease)
			continue
		default:
			v = logic.FromBool(len(stream) > 0 && stream[0]>>uint(len(d.data))&1 == 1)
			d.data = append(d.data, p.Name)
		}
		d.drives = append(d.drives, drive{p.Name, v, 0})
	}
	if stream == nil {
		return d
	}
	// Input regions: whose latches the data inputs reach through logic.
	var regions []int
	var queue []*netlist.Net
	for _, p := range d.data {
		queue = append(queue, m.Port(p).Net)
	}
	for seen := map[*netlist.Net]bool{}; len(queue) > 0; {
		n := queue[len(queue)-1]
		if queue = queue[:len(queue)-1]; n == nil || seen[n] {
			continue
		}
		seen[n] = true
		for _, sk := range n.Sinks {
			if in := sk.Inst; in != nil && in.Cell.Kind == netlist.KindLatch && !slices.Contains(regions, in.Group) {
				regions = append(regions, in.Group)
			} else if in != nil && in.Cell.Kind == netlist.KindComb {
				for _, pc := range in.Conns() {
					if pc.Dir == netlist.Out {
						queue = append(queue, pc.Net)
					}
				}
			}
		}
	}
	sort.Ints(regions)
	for _, g := range regions {
		tok := ctrlnet.Name(g, "gm")
		if m.Port(ctrlnet.EnvRequestPort(g)) != nil {
			tok = ctrlnet.EnvReqAckPort(g)
		}
		d.tokens = append(d.tokens, tok)
	}
	return d
}

// Start schedules the design's stimulus on a fresh simulator: the port
// drives, then the environment and the input stream, which answer the
// design's handshakes as it runs (at future times, on classified ports,
// so those drives cannot fail).
func (d *Driver) Start(s *sim.Simulator) (err error) {
	for _, dr := range d.drives {
		if err = s.Drive(dr.port, dr.v, dr.at); err != nil {
			return err
		}
	}
	watch := func(net string, fn func(t float64, v logic.V)) {
		if err == nil {
			err = s.OnChange(net, fn)
		}
	}
	kick := d.release + envKick
	for _, ra := range d.reqs {
		watch(ra[1], func(t float64, v logic.V) {
			if t > kick && v == logic.H {
				_ = s.Drive(ra[0], logic.L, t+reqDrop)
			} else if t > kick && v == logic.L && d.stream == nil {
				_ = s.Drive(ra[0], logic.H, t+reqAfter)
			}
		})
	}
	for _, ar := range d.acks {
		watch(ar[1], func(t float64, v logic.V) { _ = s.Drive(ar[0], v, t+dataSetup) })
	}
	next, counts := 1, make([]int, len(d.tokens))
	for i, net := range d.tokens {
		prev := logic.X
		watch(net, func(t float64, v logic.V) {
			fell := prev == logic.H && v == logic.L
			if prev = v; !fell {
				return
			}
			if counts[i]++; next < len(d.stream) && slices.Min(counts) == next {
				d.present(s, next, t+dataSetup)
				for _, ra := range d.reqs {
					_ = s.Drive(ra[0], logic.H, t+reqAfter)
				}
				next++
			}
		})
	}
	return err
}

// present drives stream vector k onto the data inputs at time at.
func (d *Driver) present(s *sim.Simulator, k int, at float64) {
	for i, p := range d.data {
		_ = s.Drive(p, logic.FromBool(d.stream[k]>>uint(i)&1 == 1), at)
	}
}

// Verdict is the oracle's answer: the registers and captures compared, the
// slave captures set aside, the reference captures that are X (which match
// only X), and the first counterexample (nil when none).
type Verdict struct {
	Registers, Captures, Dropped, Unknown int
	Counterexample                        *Counterexample
}

// Counterexample is where a latch's captures part from its register's
// reference: capture Index, the reference's Want, the converted design's
// Got and when it captured; or a stall, with Of the reference's capture
// count and Index the latch's.
type Counterexample struct {
	Latch     string
	Index, Of int
	Want, Got logic.V
	Time      float64
}

// diverge compares a run's captures with reference captures, names sorted:
// the first differing capture, else the first latch with fewer than
// livenessFraction of its (at least two) reference captures. It also
// returns how many captures it compared.
func diverge(want, got map[string][]logic.V, times map[string][]float64) (*Counterexample, int) {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	compared := 0
	for _, name := range names {
		w, g := want[name], got[name]
		for k := 0; k < min(len(w), len(g)); k, compared = k+1, compared+1 {
			if g[k] != w[k] {
				return &Counterexample{Latch: name, Index: k, Want: w[k], Got: g[k], Time: times[name][k]}, compared
			}
		}
	}
	for _, name := range names {
		if w, g := len(want[name]), len(got[name]); w >= 2 && float64(g) < livenessFraction*float64(w) {
			return &Counterexample{Latch: name, Index: g, Of: w}, compared
		}
	}
	return nil, compared
}

// Oracle decides flow equivalence between the synchronous reference ref
// and its conversion conv under the reset contract rst, simulating both at
// corner through the driver with the same input stream (the two designs'
// data inputs must agree). The reference is clocked on its flip-flops'
// clock pin for cycles rising edges of period, the first one period after
// the datapath reset releases; vector k goes out dataSetup after edge k-1.
// The converted design runs until its latches catch up with the reference,
// or six reference run lengths. Alignment: each reference register r is
// compared with both latches that replaced it, the master r/ml from its
// first capture, the slave r/sl from its first capture after r/ml's first
// (a two-phase slave first captures the reset value it parked on).
func Oracle(ref, conv *netlist.Module, rst ctrlnet.Reset, corner netlist.Corner, period float64, cycles int, stream []uint64) (*Verdict, error) {
	rs, err := sim.New(ref, sim.Config{Corner: corner})
	if err != nil {
		return nil, err
	}
	rd, edge0 := NewDriver(ref, ctrlnet.Reset{}, 0, stream), dpRelease+period
	if err := rd.Start(rs); err != nil {
		return nil, err
	} else if err := rs.Clock(rd.clock, period, edge0-period/2, edge0-period/2+float64(cycles)*period); err != nil {
		return nil, fmt.Errorf("faults: reference %s: %w", ref.Name, err)
	}
	for k := 1; k < len(stream); k++ {
		rd.present(rs, k, edge0+float64(k-1)*period+dataSetup)
	}
	if err := rs.RunUntilQuiescent(); err != nil {
		return nil, err
	}
	cs, err := sim.New(conv, sim.Config{Corner: corner})
	if err != nil {
		return nil, err
	}
	cd := newDriver(conv, rst, 0, stream, rd.clock)
	if !slices.Equal(cd.data, rd.data) {
		return nil, fmt.Errorf("faults: %s has data inputs %v, its reference %v", conv.Name, cd.data, rd.data)
	}
	if err := cd.Start(cs); err != nil {
		return nil, err
	}
	caughtUp := func() bool {
		for r, seq := range rs.Captures {
			if len(cs.Captures[r+"/ml"]) < len(seq) || len(cs.Captures[r+"/sl"]) <= len(seq) {
				return false
			}
		}
		return true
	}
	for t := cd.release; t < cd.release+6*rs.Now() && !caughtUp(); t += rs.Now() / 4 {
		if err := cs.Run(t); err != nil {
			return nil, err
		}
	}

	v, want := &Verdict{Registers: len(rs.Captures)}, map[string][]logic.V{}
	for r, seq := range rs.Captures {
		ml, sl := r+"/ml", r+"/sl"
		mt, st, skip := cs.CaptureTimes[ml], cs.CaptureTimes[sl], 0
		for skip < len(st) && (len(mt) == 0 || st[skip] <= mt[0]) {
			skip++ // a slave capture before its master's first
		}
		cs.Captures[sl], cs.CaptureTimes[sl] = cs.Captures[sl][skip:], st[skip:]
		want[ml], want[sl], v.Dropped = seq, seq, v.Dropped+skip
		for _, x := range seq {
			if x == logic.X {
				v.Unknown++
			}
		}
	}
	v.Counterexample, v.Captures = diverge(want, cs.Captures, cs.CaptureTimes)
	return v, nil
}
