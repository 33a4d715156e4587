package ctrlnet_test

import (
	"reflect"
	"sync"
	"testing"

	"desync/internal/core"
	"desync/internal/ctrlnet"
	"desync/internal/expt"
	"desync/internal/netlist"
)

// The DLX flow is the richest fixture in the repo (4 regions, rendezvous
// trees, environment ports); run it once and share the result.
var (
	dlxOnce sync.Once
	dlxTop  *netlist.Module
	dlxRes  *core.Result
	dlxErr  error
)

func dlxModule(t testing.TB) *netlist.Module {
	dlxOnce.Do(func() {
		f, err := expt.RunFlow("dlx", expt.FlowConfig{})
		if err != nil {
			dlxErr = err
			return
		}
		dlxTop = f.Design.Top
		dlxRes = f.Result
	})
	if dlxErr != nil {
		t.Fatalf("DLX flow: %v", dlxErr)
	}
	return dlxTop
}

func TestDeriveDLX(t *testing.T) {
	m := dlxModule(t)
	n := ctrlnet.DeriveFresh(m)
	if n.Empty() {
		t.Fatal("derived empty network from desynchronized DLX")
	}
	if len(n.Regions) != 4 {
		t.Fatalf("regions = %v, want 4", n.Regions)
	}
	for _, g := range n.Regions {
		c := n.Controllers[g]
		if c == nil || !c.Complete() {
			t.Errorf("G%d: incomplete controller", g)
		}
		ch := n.Channels[g]
		for _, s := range ctrlnet.ChannelSuffixes {
			if ch.BySuffix(s) == nil {
				t.Errorf("G%d: missing channel net %s", g, s)
			}
		}
		if n.MSDelays[g] == nil {
			t.Errorf("G%d: missing master-slave delay chain", g)
		}
		if !n.Completion[g] && n.ReqDelays[g] == nil {
			t.Errorf("G%d: no completion detection and no matched delay chain", g)
		}
		if n.ControlNet(g, "mri") == nil || n.ControlNet(g, "gm") == nil {
			t.Errorf("G%d: ControlNet failed to resolve mri/gm", g)
		}
	}

	// Every latch must be cleanly colored, and the derived region graph must
	// agree with the DDG the flow built before insertion — that agreement is
	// exactly what Diff later institutionalizes.
	master, slave := 0, 0
	for _, l := range n.Latches {
		if !l.Colored() {
			t.Fatalf("latch %s not cleanly colored: %d roots", l.Inst.Name, len(l.Roots))
		}
		if l.Phase() == ctrlnet.Master {
			master++
		} else {
			slave++
		}
		if got := n.Latch(l.Inst); got != l {
			t.Fatalf("Latch(%s) lookup mismatch", l.Inst.Name)
		}
	}
	if master == 0 || slave == 0 {
		t.Fatalf("phase split master=%d slave=%d, want both non-zero", master, slave)
	}
	for _, g := range n.Regions {
		if !reflect.DeepEqual(n.Succs[g], dlxRes.DDG.Succs[g]) {
			t.Errorf("G%d: derived succs %v, flow DDG %v", g, n.Succs[g], dlxRes.DDG.Succs[g])
		}
	}
	// DLX's region graph is fully internal (every region has predecessors
	// and successors), so the flow exposes no environment handshake ports;
	// the derived view must agree with the insert stage's own record.
	if !reflect.DeepEqual(n.EnvRequests, dlxRes.Insert.EnvRequests) ||
		!reflect.DeepEqual(n.EnvAcks, dlxRes.Insert.EnvAcks) {
		t.Errorf("env ports req=%v ack=%v, flow recorded req=%v ack=%v",
			n.EnvRequests, n.EnvAcks, dlxRes.Insert.EnvRequests, dlxRes.Insert.EnvAcks)
	}
	if len(n.FFs) != 0 {
		t.Errorf("%d flip-flops survived substitution", len(n.FFs))
	}
}

func TestDeriveMemoization(t *testing.T) {
	m := dlxModule(t)
	a := ctrlnet.Derive(m)
	if b := ctrlnet.Derive(m); b != a {
		t.Fatal("second Derive did not hit the memo")
	}
	// Any structural mutation must invalidate.
	m.AddNet("ctrlnet_memo_probe")
	if c := ctrlnet.Derive(m); c == a {
		t.Fatal("Derive returned stale network after structural mutation")
	}
	if err := m.RemoveNet(m.Net("ctrlnet_memo_probe")); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveConcurrent hammers the memo cache from many goroutines: every
// caller must get the same cached network with no data race (make check runs
// this package under -race precisely for this path).
func TestDeriveConcurrent(t *testing.T) {
	m := dlxModule(t)
	want := ctrlnet.Derive(m)
	var wg sync.WaitGroup
	got := make([]*ctrlnet.Network, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = ctrlnet.Derive(m)
		}(i)
	}
	wg.Wait()
	for i, n := range got {
		if n != want {
			t.Fatalf("goroutine %d got a different network instance", i)
		}
	}
}

func TestDiffDLX(t *testing.T) {
	m := dlxModule(t)
	n := ctrlnet.DeriveFresh(m)

	claim := &ctrlnet.Claim{
		Module:      m,
		Regions:     append([]int(nil), n.Regions...),
		Preds:       n.Preds,
		Succs:       n.Succs,
		DelayLevels: map[int]int{},
		MSLevels:    map[int]int{},
		Completion:  n.Completion,
		EnvRequests: n.EnvRequests,
		EnvAcks:     n.EnvAcks,
	}
	for g, c := range n.ReqDelays {
		claim.DelayLevels[g] = c.Levels
	}
	for g, c := range n.MSDelays {
		claim.MSLevels[g] = c.Levels
	}
	if mm := ctrlnet.Diff(claim, n); len(mm) != 0 {
		t.Fatalf("self-consistent claim diffed: %v", mm)
	}

	// Perturbations must surface as mismatches.
	claim.DelayLevels[n.Regions[0]]++
	claim.Completion[99] = false // no-op key, keeps map comparable
	if mm := ctrlnet.Diff(claim, n); len(mm) != 1 {
		t.Fatalf("delay-level perturbation: got %v, want 1 mismatch", mm)
	} else if mm[0].Region != n.Regions[0] {
		t.Fatalf("mismatch attributed to G%d, want G%d", mm[0].Region, n.Regions[0])
	}
	claim.DelayLevels[n.Regions[0]]--

	claim.Regions = claim.Regions[1:]
	mm := ctrlnet.Diff(claim, n)
	if len(mm) != 1 || mm[0].Region != -1 {
		t.Fatalf("region-set perturbation: got %v, want one global mismatch", mm)
	}
}

// BenchmarkCtrlnetDeriveDLX prices one full derivation of the DLX control
// network; BenchmarkCtrlnetDeriveCached prices the memo hit every consumer
// after the first pays instead.
func BenchmarkCtrlnetDeriveDLX(b *testing.B) {
	m := dlxModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrlnet.DeriveFresh(m)
	}
}

func BenchmarkCtrlnetDeriveCached(b *testing.B) {
	m := dlxModule(b)
	ctrlnet.Derive(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrlnet.Derive(m)
	}
}
