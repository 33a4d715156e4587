package expt

import (
	"fmt"
	"strings"

	"desync/internal/designs"
	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/sim"
)

// MeasureDFIR free-runs the desynchronized FIR against an eager 4-phase
// environment (the §4.8 testbench discipline) for the given number of
// samples and measures the steady-state effective period from the
// accumulator's capture spacing, checking the output stream against the
// golden FIR model.
func MeasureDFIR(f *Flow, corner netlist.Corner, samples int) (*MeasureRun, error) {
	// The environment handshake ports the insertion created on the FIR's
	// open boundaries: one request in, one acknowledge out.
	ins, outs := f.Result.Insert.EnvRequests, f.Result.Insert.EnvAcks
	if len(ins) != 1 || len(outs) != 1 {
		return nil, fmt.Errorf("expt: FIR boundary ports %v / %v, want one open boundary per side", ins, outs)
	}
	reqIn, ackOut := ins[0], outs[0]
	ackIn := strings.TrimSuffix(reqIn, "_ri") + "_ai"
	reqOut := strings.TrimSuffix(ackOut, "_ao") + "_ro"
	for _, p := range []string{ackIn, reqOut} {
		if f.Design.Top.Port(p) == nil {
			return nil, fmt.Errorf("expt: FIR environment port %s missing", p)
		}
	}
	s, err := sim.New(f.Design.Top, sim.Config{Corner: corner})
	if err != nil {
		return nil, err
	}
	stream := make([]uint64, samples)
	x := uint64(0x9e)
	for i := range stream {
		x = (x*137 + 71) % 251
		stream[i] = x
	}

	// Input side: a 4-phase producer that answers the acknowledge as fast
	// as data validity allows. Edges during the boot window are the X->0
	// settling of the acknowledge, not handshakes.
	const kickAt = 3.5
	next := 0
	if err := s.OnChange(ackIn, func(tm float64, v logic.V) {
		if tm <= kickAt {
			return
		}
		if v == logic.H {
			s.Drive(reqIn, logic.L, tm+0.1)
			return
		}
		if next < len(stream) {
			s.DriveVector("x", designs.FIRWidth, stream[next], tm+0.2)
			next++
			s.Drive(reqIn, logic.H, tm+1.0)
		}
	}); err != nil {
		return nil, err
	}
	// Output side: an eager 4-phase consumer.
	if err := s.OnChange(reqOut, func(tm float64, v logic.V) {
		s.Drive(ackOut, v, tm+0.2)
	}); err != nil {
		return nil, err
	}
	s.Drive("rstn", logic.L, 0)
	s.Drive("rst_desync", logic.H, 0)
	s.Drive(reqIn, logic.L, 0)
	s.Drive(ackOut, logic.L, 0)
	s.Drive("rstn", logic.H, 1)
	s.Drive("rst_desync", logic.L, 2)
	s.DriveVector("x", designs.FIRWidth, stream[0], 2.5)
	next = 1
	s.Drive(reqIn, logic.H, kickAt)
	if err := s.Run(f.Period * float64(samples) * 8); err != nil {
		return nil, err
	}

	times := s.CaptureTimes["yr[0]/sl"]
	run := &MeasureRun{Cycles: len(times)}
	if len(times) < samples/2 {
		return nil, fmt.Errorf("expt: desynchronized FIR stalled: %d captures", len(times))
	}
	skip := 3
	if len(times) <= skip+2 {
		skip = 0
	}
	run.EffectivePeriod = (times[len(times)-1] - times[skip]) / float64(len(times)-1-skip)

	// Output stream against the golden model.
	model := &designs.FIRModel{}
	for _, v := range stream {
		model.Step(uint16(v))
	}
	kmax := len(times)
	for i := 0; i < designs.FIRWidth+4; i++ {
		if n := len(s.Captures[fmt.Sprintf("yr[%d]", i)+"/sl"]); n < kmax {
			kmax = n
		}
	}
	run.Correct = kmax > 0
	for k := 0; k < kmax && k < len(model.YTrace) && run.Correct; k++ {
		var y uint16
		for i := 0; i < designs.FIRWidth+4; i++ {
			if s.Captures[fmt.Sprintf("yr[%d]", i)+"/sl"][k] == logic.H {
				y |= 1 << uint(i)
			}
		}
		if y != model.YTrace[k] {
			run.Correct = false
		}
	}
	return run, nil
}
