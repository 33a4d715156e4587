package expt

import (
	"strings"
	"testing"
)

// TestRunFlowPipeline pushes a small parametric pipeline through the
// experiment flow — the path drequiv/drsweep take for -gen specs — and
// checks the manual grouping survived into the control network.
func TestRunFlowPipeline(t *testing.T) {
	f, err := RunFlow("pipeline:depth=4,width=16,regions=2", FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Period <= 0 {
		t.Fatalf("period = %v, want > 0", f.Period)
	}
	if got := len(f.Result.Network.Regions); got != 2 {
		t.Fatalf("regions = %d, want 2", got)
	}
	if f.Design.Top.Port("rst_desync") == nil {
		t.Fatal("desynchronized top has no rst_desync")
	}
}

func TestRunFlowRejects(t *testing.T) {
	if _, err := RunFlow("pipeline:depth=0", FlowConfig{}); err == nil {
		t.Fatal("want error for invalid spec")
	}
}

// TestCompareBackends runs both backends over one small parametric spec and
// checks the comparison's internal consistency: same reference, both rows,
// plausible overheads.
func TestCompareBackends(t *testing.T) {
	rows, err := CompareBackends([]string{"pipeline:depth=4,width=8,regions=3"},
		[]string{"desync", "twophase"}, FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Backends) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
	r := rows[0]
	if r.SyncCells == 0 || r.SyncArea <= 0 || r.SyncPeriod <= 0 {
		t.Fatalf("degenerate sync reference: %+v", r)
	}
	for _, c := range r.Backends {
		if c.Cells <= r.SyncCells || c.CellArea <= r.SyncArea {
			t.Errorf("%s conversion did not grow the netlist: %+v", c.Backend, c)
		}
		if c.Period <= 0 {
			t.Errorf("%s period %.3f", c.Backend, c.Period)
		}
	}
	if got := RenderBackendTable(rows); !strings.Contains(got, "desync") || !strings.Contains(got, "twophase") {
		t.Errorf("rendered table lacks backend rows:\n%s", got)
	}
}
