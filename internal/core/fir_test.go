package core

import (
	"context"
	"testing"

	"desync/internal/designs"
	"desync/internal/netlist"
	"desync/internal/sta"
)

// firSamples is a deterministic input stream.
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
	dsync, err := designs.BuildFIR(lib)
	if err != nil {
		t.Fatal(err)
	}
	// The accumulator's adder tree dominates: take the clock from STA.
	rds, err := sta.RegionDelays(context.Background(), dsync.Top, netlist.Worst, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	period := 0.0
	for _, rd := range rds {
		period = max(period, rd.Budget())
	}
	period *= 1.15

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
	v := flowEquivalent(t, dsync, ddes, res, period, 20, firSamples(20), 0)
	if v.Registers != 92 { // 4x8 delay line + 4x12 products + 12 accumulator
		t.Fatalf("compared %d registers, want 92", v.Registers)
	}
	t.Logf("FIR flow equivalence verified over %d registers, %d regions, env ports %v/%v",
		v.Registers, len(res.DDG.Nodes), res.Insert.EnvRequests, res.Insert.EnvAcks)
}
