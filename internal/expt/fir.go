package expt

import (
	"desync/internal/designs"
	"desync/internal/faults"
	"desync/internal/netlist"
	"desync/internal/sim"
)

// MeasureDFIR free-runs the desynchronized FIR against the driver's eager
// 4-phase environment (the §4.8 testbench discipline), which feeds it the
// given number of samples, and measures the steady-state effective period
// from the accumulator's capture spacing, checking the output stream
// against the golden FIR model.
func MeasureDFIR(f *Flow, corner netlist.Corner, samples int) (*MeasureRun, error) {
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
	if err := faults.NewDriver(f.Design.Top, f.Result.Reset, 0, stream).Start(s); err != nil {
		return nil, err
	}
	if err := s.Run(f.Period * float64(samples) * 8); err != nil {
		return nil, err
	}

	run, err := measured(s.CaptureTimes["yr[0]/sl"], samples, "FIR")
	if err != nil {
		return nil, err
	}
	// Output stream against the golden model.
	model := &designs.FIRModel{}
	for _, v := range stream {
		model.Step(uint16(v))
	}
	ys := slaveWords(s, "yr", designs.FIRWidth+4)
	run.Correct = len(ys) > 0
	for k, y := range ys {
		run.Correct = run.Correct && (k >= len(model.YTrace) || y == model.YTrace[k])
	}
	return run, nil
}
