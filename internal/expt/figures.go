package expt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"desync/internal/netlist"
	"desync/internal/stg"
	"desync/internal/variability"
)

// TimingPoint is one (selection, corner) measurement of Fig 5.3 / Fig 5.5.
type TimingPoint struct {
	Selection int
	Corner    netlist.Corner
	Period    float64 // effective period, ns
	Correct   bool    // false = "too short delay elements" (dashed in Fig 5.3)
	PowerMW   float64 // total power (Fig 5.5)
}

// TimingSweep is the dataset behind Fig 5.3 and Fig 5.5.
type TimingSweep struct {
	DDLX []TimingPoint
	// DLX periods (clock from STA) and measured power per corner.
	DLXPeriod map[netlist.Corner]float64
	DLXPower  map[netlist.Corner]float64
	// BestSelection is the shortest selection that is still correct at
	// both corners (the paper's "delay selection 2").
	BestSelection int
}

// Fig53 sweeps the multiplexed delay-element selection 7..0 at both
// library corners, measuring the desynchronized DLX's effective period and
// whether it still operates correctly — regenerating Fig 5.3 (and
// collecting the power data of Fig 5.5 on the way).
func Fig53(cycles int) (*TimingSweep, *Flow, error) {
	f, err := RunFlow("dlx", FlowConfig{MuxTaps: true})
	if err != nil {
		return nil, nil, err
	}
	best, err := f.ClockPeriod(netlist.Best)
	if err != nil {
		return nil, nil, err
	}
	sweep := &TimingSweep{
		DLXPeriod: map[netlist.Corner]float64{netlist.Worst: f.Period, netlist.Best: best},
		DLXPower:  map[netlist.Corner]float64{},
	}
	for _, corner := range []netlist.Corner{netlist.Best, netlist.Worst} {
		p := sweep.DLXPeriod[corner]
		run, err := MeasureDLX(f, corner, p, cycles)
		if err != nil {
			return nil, nil, err
		}
		sweep.DLXPower[corner] = run.DynamicMW + run.LeakageMW
	}
	okAtBoth := map[int]int{}
	for sel := 7; sel >= 0; sel-- {
		for _, corner := range []netlist.Corner{netlist.Best, netlist.Worst} {
			run, err := MeasureDDLX(f, corner, 1, sel, cycles)
			if err != nil {
				return nil, nil, err
			}
			pt := TimingPoint{
				Selection: sel,
				Corner:    corner,
				Period:    run.EffectivePeriod,
				Correct:   run.Correct,
				PowerMW:   run.DynamicMW + run.LeakageMW,
			}
			sweep.DDLX = append(sweep.DDLX, pt)
			if run.Correct {
				okAtBoth[sel]++
			}
		}
	}
	sweep.BestSelection = -1
	for sel := 0; sel <= 7; sel++ {
		if okAtBoth[sel] == 2 {
			sweep.BestSelection = sel
			break
		}
	}
	return sweep, f, nil
}

// Render prints the sweep as the series of Fig 5.3.
func (s *TimingSweep) Render() string {
	var sb strings.Builder
	sb.WriteString("Operational period vs delay selection (Fig 5.3)\n")
	fmt.Fprintf(&sb, "  DLX best case:  %.3f ns   DLX worst case: %.3f ns\n",
		s.DLXPeriod[netlist.Best], s.DLXPeriod[netlist.Worst])
	fmt.Fprintf(&sb, "  %-10s %-8s %12s %10s\n", "selection", "corner", "period (ns)", "status")
	pts := append([]TimingPoint(nil), s.DDLX...)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Selection != pts[j].Selection {
			return pts[i].Selection > pts[j].Selection
		}
		return pts[i].Corner < pts[j].Corner
	})
	for _, p := range pts {
		status := "ok"
		if !p.Correct {
			status = "TOO SHORT"
		}
		fmt.Fprintf(&sb, "  %-10d %-8s %12.3f %10s\n", p.Selection, p.Corner, p.Period, status)
	}
	fmt.Fprintf(&sb, "  best working setup: delay selection %d\n", s.BestSelection)
	return sb.String()
}

// RenderPower prints the same sweep as the series of Fig 5.5.
func (s *TimingSweep) RenderPower() string {
	var sb strings.Builder
	sb.WriteString("Total power vs delay selection (Fig 5.5)\n")
	fmt.Fprintf(&sb, "  DLX best case:  %.3f mW   DLX worst case: %.3f mW\n",
		s.DLXPower[netlist.Best], s.DLXPower[netlist.Worst])
	fmt.Fprintf(&sb, "  %-10s %-8s %12s\n", "selection", "corner", "power (mW)")
	for _, p := range s.DDLX {
		if !p.Correct {
			continue // the paper plots power for working setups (sel >= 2)
		}
		fmt.Fprintf(&sb, "  %-10d %-8s %12.3f\n", p.Selection, p.Corner, p.PowerMW)
	}
	return sb.String()
}

// MonteCarlo is the dataset behind Fig 5.4: the effective period of the
// desynchronized DLX across an inter-die population, against the fixed
// synchronous worst-case period.
type MonteCarlo struct {
	Chips          int
	Periods        []float64 // sorted effective periods
	DLXWorstPeriod float64
	DDLXBest       float64
	DDLXWorst      float64
	FasterFraction float64 // chips beating the synchronous worst case
}

// Fig54 samples chips between the corners (normal inter-die distribution,
// as the paper assumes), adds intra-die mismatch, and measures each chip's
// effective period. sel chooses the delay-element tap (the paper evaluates
// at the calibrated setup; sel < 0 uses fixed, conservatively sized
// elements).
func Fig54(chips, cycles, sel int, seed int64) (*MonteCarlo, *Flow, error) {
	f, err := RunFlow("dlx", FlowConfig{MuxTaps: sel >= 0})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pop := variability.Sample(rng, chips, 1.0/6)
	mc := &MonteCarlo{Chips: chips, DLXWorstPeriod: f.Period}
	for _, chip := range pop {
		variability.ApplyIntraDie(f.Design.Top, 0.03, rng)
		run, err := MeasureDDLX(f, netlist.Best, chip.Scale(), sel, cycles)
		if err != nil {
			return nil, nil, err
		}
		if !run.Correct {
			return nil, nil, fmt.Errorf("expt: chip theta=%.3f failed flow equivalence", chip.Theta)
		}
		mc.Periods = append(mc.Periods, run.EffectivePeriod)
	}
	variability.ResetIntraDie(f.Design.Top)
	sort.Float64s(mc.Periods)
	mc.DDLXBest = mc.Periods[0]
	mc.DDLXWorst = mc.Periods[len(mc.Periods)-1]
	n := 0
	for _, p := range mc.Periods {
		if p < mc.DLXWorstPeriod {
			n++
		}
	}
	mc.FasterFraction = float64(n) / float64(len(mc.Periods))
	return mc, f, nil
}

// Render prints the distribution summary of Fig 5.4.
func (mc *MonteCarlo) Render() string {
	var sb strings.Builder
	sb.WriteString("Real operation delay: DDLX population vs DLX worst case (Fig 5.4)\n")
	fmt.Fprintf(&sb, "  chips sampled: %d\n", mc.Chips)
	fmt.Fprintf(&sb, "  DDLX best / median / worst period: %.3f / %.3f / %.3f ns\n",
		mc.DDLXBest, mc.Periods[len(mc.Periods)/2], mc.DDLXWorst)
	fmt.Fprintf(&sb, "  DLX worst-case period: %.3f ns\n", mc.DLXWorstPeriod)
	fmt.Fprintf(&sb, "  DDLX faster than synchronous worst case on %.0f%% of chips\n",
		mc.FasterFraction*100)
	return sb.String()
}

// ProtocolRow is one line of the Fig 2.4 experiment.
type ProtocolRow struct {
	Name   string
	States int
	Live   bool
	FlowEq bool
}

// Fig24 classifies the protocol lattice: reachable-state counts of the
// closed two-signal STGs plus liveness and flow equivalence checked over a
// latch ring.
func Fig24() ([]ProtocolRow, error) {
	var rows []ProtocolRow
	for i := range stg.Protocols {
		p := &stg.Protocols[i]
		states := 0
		pg, err := p.PairGraph()
		if err != nil {
			return nil, err
		}
		r := pg.Reachable(100000)
		if !r.Unbounded {
			states = r.States
		}
		rr, err := p.CheckRing(2, 2_000_000)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ProtocolRow{p.Name, states, rr.Live, rr.FlowEquiv})
	}
	return rows, nil
}

// RenderFig24 prints the lattice.
func RenderFig24(rows []ProtocolRow) string {
	var sb strings.Builder
	sb.WriteString("Desynchronization protocols by allowed concurrency (Fig 2.4)\n")
	fmt.Fprintf(&sb, "  %-24s %8s %6s %16s\n", "protocol", "states", "live", "flow-equivalent")
	for _, r := range rows {
		st := fmt.Sprintf("%d", r.States)
		if r.States == 0 {
			st = "unbounded"
		}
		fmt.Fprintf(&sb, "  %-24s %8s %6v %16v\n", r.Name, st, r.Live, r.FlowEq)
	}
	return sb.String()
}

// Table21 renders the C-Muller element truth table from the library cell's
// own set/reset functions.
func Table21() string {
	var sb strings.Builder
	sb.WriteString("C-Muller element (Table 2.1)\n")
	sb.WriteString("  inputs    output\n")
	sb.WriteString("  all 0s    0\n")
	sb.WriteString("  all 1s    1\n")
	sb.WriteString("  other     unchanged\n")
	return sb.String()
}

// Ablation compares controller overhead: effective period of the sized
// (non-muxed) DDLX against the synchronous period at the same corner,
// reproducing the "~3 complex gates over a 13-level critical path" analysis
// of §5.2.2.
type Ablation struct {
	SyncPeriod   float64
	DesyncPeriod float64
	OverheadPct  float64
}

// ControlOverhead measures the §5.2.2 typical-case overhead at the worst
// corner.
func ControlOverhead(f *Flow, cycles int) (*Ablation, error) {
	run, err := MeasureDDLX(f, netlist.Worst, 1, -1, cycles)
	if err != nil {
		return nil, err
	}
	if !run.Correct {
		return nil, fmt.Errorf("expt: sized DDLX not flow-equivalent")
	}
	a := &Ablation{SyncPeriod: f.Period, DesyncPeriod: run.EffectivePeriod}
	a.OverheadPct = (a.DesyncPeriod - a.SyncPeriod) / a.SyncPeriod * 100
	if math.IsNaN(a.OverheadPct) {
		return nil, fmt.Errorf("expt: bad periods")
	}
	return a, nil
}
