package expt

import (
	"context"
	"fmt"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/sim"
	"desync/internal/sta"
	"desync/internal/stdcells"
)

// FIRFlow holds the third case study: the FIR filter whose boundary
// regions talk to the environment through generated req/ack ports.
type FIRFlow struct {
	Sync   *netlist.Design
	Desync *netlist.Design
	Result *core.Result
	// Period is the synchronous worst-case clock period from STA (ns).
	Period float64
	// Env port names the insertion created on the open boundaries.
	ReqIn, AckIn, ReqOut, AckOut string
}

// RunFIRFlow desynchronizes the FIR filter (§6 future work: "more study
// case circuits"): build, take the clock from STA, desynchronize, and
// resolve the environment handshake ports the testbench discipline of
// §4.8 drives.
func RunFIRFlow() (*FIRFlow, error) {
	lib := stdcells.New(stdcells.HighSpeed)
	f := &FIRFlow{}
	var err error
	if f.Sync, err = designs.BuildFIR(lib); err != nil {
		return nil, err
	}
	core.CleanLogic(f.Sync.Top)
	if f.Period, err = sta.ClockPeriod(context.Background(), f.Sync.Top, netlist.Worst, sta.Options{}, 1.15); err != nil {
		return nil, err
	}

	lib2 := stdcells.New(stdcells.HighSpeed)
	if f.Desync, err = designs.BuildFIR(lib2); err != nil {
		return nil, err
	}
	f.Result, err = core.Convert(context.Background(), f.Desync, core.Options{Period: f.Period})
	if err != nil {
		return nil, err
	}
	if len(f.Result.Insert.EnvRequests) != 1 || len(f.Result.Insert.EnvAcks) != 1 {
		return nil, fmt.Errorf("expt: FIR boundary ports %v / %v, want one open boundary per side",
			f.Result.Insert.EnvRequests, f.Result.Insert.EnvAcks)
	}
	f.ReqIn = f.Result.Insert.EnvRequests[0]
	f.AckIn = f.ReqIn[:len(f.ReqIn)-len("_ri")] + "_ai"
	f.AckOut = f.Result.Insert.EnvAcks[0]
	f.ReqOut = f.AckOut[:len(f.AckOut)-len("_ao")] + "_ro"
	for _, p := range []string{f.AckIn, f.ReqOut} {
		if f.Desync.Top.Port(p) == nil {
			return nil, fmt.Errorf("expt: FIR environment port %s missing", p)
		}
	}
	return f, nil
}

// MeasureDFIR free-runs the desynchronized FIR against an eager 4-phase
// environment (the §4.8 testbench discipline) for the given number of
// samples and measures the steady-state effective period from the
// accumulator's capture spacing, checking the output stream against the
// golden FIR model.
func MeasureDFIR(f *FIRFlow, corner netlist.Corner, samples int) (*MeasureRun, error) {
	s, err := sim.New(f.Desync.Top, sim.Config{Corner: corner})
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
	if err := s.OnChange(f.AckIn, func(tm float64, v logic.V) {
		if tm <= kickAt {
			return
		}
		if v == logic.H {
			s.Drive(f.ReqIn, logic.L, tm+0.1)
			return
		}
		if next < len(stream) {
			s.DriveVector("x", designs.FIRWidth, stream[next], tm+0.2)
			next++
			s.Drive(f.ReqIn, logic.H, tm+1.0)
		}
	}); err != nil {
		return nil, err
	}
	// Output side: an eager 4-phase consumer.
	if err := s.OnChange(f.ReqOut, func(tm float64, v logic.V) {
		s.Drive(f.AckOut, v, tm+0.2)
	}); err != nil {
		return nil, err
	}
	s.Drive("rstn", logic.L, 0)
	s.Drive("rst_desync", logic.H, 0)
	s.Drive(f.ReqIn, logic.L, 0)
	s.Drive(f.AckOut, logic.L, 0)
	s.Drive("rstn", logic.H, 1)
	s.Drive("rst_desync", logic.L, 2)
	s.DriveVector("x", designs.FIRWidth, stream[0], 2.5)
	next = 1
	s.Drive(f.ReqIn, logic.H, kickAt)
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
