package core

import (
	"context"
	"fmt"
	"testing"

	"desync/internal/designs"
	"desync/internal/logic"
	"desync/internal/netlist"
	"desync/internal/sim"
	"desync/internal/sta"
)

// firSamples is the deterministic input stream for both runs.
func firSamples(n int) []uint64 {
	out := make([]uint64, n)
	x := uint64(0x9e)
	for i := range out {
		x = (x*137 + 71) % 251
		out[i] = x
	}
	return out
}

// The third case study (§6 future work: "more study case circuits"): a
// FIR filter whose boundary regions are driven by the environment through
// the request/acknowledge ports the tool creates — the §4.8 testbench
// discipline, executed end to end.
func TestFIRDesynchronizedFlowEquivalence(t *testing.T) {
	lib := hs()
	nSamples := 20
	samples := firSamples(nSamples)

	// The accumulator's adder tree dominates: take the clock from STA.
	tmp, err := designs.BuildFIR(lib)
	if err != nil {
		t.Fatal(err)
	}
	rds, err := sta.RegionDelays(context.Background(), tmp.Top, netlist.Worst, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	period := 0.0
	for _, rd := range rds {
		if b := rd.Budget(); b > period {
			period = b
		}
	}
	period *= 1.15

	// Synchronous reference: one sample per clock edge.
	dsync, err := designs.BuildFIR(lib)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sim.New(dsync.Top, sim.Config{Corner: netlist.Worst})
	if err != nil {
		t.Fatal(err)
	}
	ss.Drive("rstn", logic.L, 0)
	ss.Drive("rstn", logic.H, period*0.4)
	for n, s := range samples {
		// Sample n stable before edge n (edges at period/2 + n*period).
		if err := ss.DriveVector("x", designs.FIRWidth, s, float64(n)*period+0.05); err != nil {
			t.Fatal(err)
		}
	}
	ss.Clock("clk", period, 0, period*float64(nSamples))
	if err := ss.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}

	// Golden model sanity.
	model := &designs.FIRModel{}
	for _, s := range samples {
		model.Step(uint16(s))
	}
	yCaps := ss.Captures["yr[0]"]
	if len(yCaps) < nSamples-2 {
		t.Fatalf("sync run too short: %d captures", len(yCaps))
	}
	for k := 0; k < len(yCaps); k++ {
		var y uint16
		for i := 0; i < designs.FIRWidth+4; i++ {
			if ss.Captures[fmt.Sprintf("yr[%d]", i)][k] == logic.H {
				y |= 1 << uint(i)
			}
		}
		if y != model.YTrace[k] {
			t.Fatalf("sync cycle %d: y=%d model %d", k, y, model.YTrace[k])
		}
	}

	// Desynchronized version with environment handshakes.
	ddes, err := designs.BuildFIR(lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Convert(context.Background(), ddes, Options{Period: period})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Insert.EnvRequests) != 1 || len(res.Insert.EnvAcks) != 1 {
		t.Fatalf("expected one open boundary on each side, got %v / %v",
			res.Insert.EnvRequests, res.Insert.EnvAcks)
	}
	riPort := res.Insert.EnvRequests[0]
	aoPort := res.Insert.EnvAcks[0]
	aiPort := riPort[:len(riPort)-len("_ri")] + "_ai"
	roPort := aoPort[:len(aoPort)-len("_ao")] + "_ro"
	for _, p := range []string{aiPort, roPort} {
		if ddes.Top.Port(p) == nil {
			t.Fatalf("environment port %s missing", p)
		}
	}

	ds, err := sim.New(ddes.Top, sim.Config{Corner: netlist.Worst})
	if err != nil {
		t.Fatal(err)
	}
	// Input side: a 4-phase producer. Data changes only while ri is low and
	// the previous handshake completed; edges during the boot window are the
	// X->0 settling of the acknowledge, not handshakes — a real testbench
	// gates on reset the same way.
	const kickAt = 3.5
	next := 0
	if err := ds.OnChange(aiPort, func(tm float64, v logic.V) {
		if tm <= kickAt {
			return
		}
		if v == logic.H {
			ds.Drive(riPort, logic.L, tm+0.1)
			return
		}
		// ai fell: present the next sample and request again.
		if next < len(samples) {
			ds.DriveVector("x", designs.FIRWidth, samples[next], tm+0.2)
			next++
			ds.Drive(riPort, logic.H, tm+1.0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Output side: a 4-phase consumer.
	if err := ds.OnChange(roPort, func(tm float64, v logic.V) {
		ds.Drive(aoPort, v, tm+0.2)
	}); err != nil {
		t.Fatal(err)
	}
	ds.Drive("rstn", logic.L, 0)
	ds.Drive("rst_desync", logic.H, 0)
	ds.Drive(riPort, logic.L, 0)
	ds.Drive(aoPort, logic.L, 0)
	ds.Drive("rstn", logic.H, 1)
	ds.Drive("rst_desync", logic.L, 2)
	// Kick the first sample.
	ds.DriveVector("x", designs.FIRWidth, samples[0], 2.5)
	next = 1
	ds.Drive(riPort, logic.H, kickAt)
	if err := ds.Run(period * float64(nSamples) * 8); err != nil {
		t.Fatal(err)
	}

	// Flow equivalence across every register.
	compared := 0
	for name, want := range ss.Captures {
		got := ds.Captures[name+"/sl"]
		if len(got) < 8 {
			t.Fatalf("%s: only %d desync captures (env handshake stalled?)", name, len(got))
		}
		n := len(want)
		if len(got) < n {
			n = len(got)
		}
		for k := 0; k < n; k++ {
			if got[k] != want[k] {
				t.Fatalf("%s capture %d: desync %v vs sync %v", name, k, got[k], want[k])
			}
		}
		compared++
	}
	if compared != 92 { // 4x8 delay line + 4x12 products + 12 accumulator
		t.Fatalf("compared %d registers, want 92", compared)
	}
	t.Logf("FIR flow equivalence verified over %d registers, %d regions, env ports %v/%v",
		compared, len(res.DDG.Nodes), riPort, aoPort)
}
