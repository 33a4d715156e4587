package equiv

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"desync/internal/ctrlnet"
)

// jsonOf renders a result the way drequiv -json does, so byte equality here
// is byte equality of the CLI report.
func jsonOf(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExploreParallelDeterministic is the determinism contract of the
// parallel engine: the DLX exploration at -j 1, -j 4 and -j GOMAXPROCS
// must visit exactly the same reduced state space (pinned at dlxStates)
// and produce byte-identical JSON reports.
func TestExploreParallelDeterministic(t *testing.T) {
	mod := dlxModule(t)
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	workers := []int{1, 4, runtime.GOMAXPROCS(0)}
	var base []byte
	for _, j := range workers {
		res := mustExplore(t, m, ExploreOptions{Parallelism: j})
		if res.States != dlxStates {
			t.Fatalf("-j %d: %d markings, pinned %d", j, res.States, dlxStates)
		}
		if !res.Clean() {
			t.Fatalf("-j %d: not clean: %+v", j, res.Violation)
		}
		got := jsonOf(t, res)
		if base == nil {
			base = got
		} else if !bytes.Equal(got, base) {
			t.Fatalf("-j %d report differs from -j %d:\n%s\n---\n%s", j, workers[0], got, base)
		}
	}
}

// TestExploreParallelCounterexampleIdentical pins the other half of the
// contract: on a broken network the parallel search must reconstruct the
// exact same counterexample — same violated rule, same firing sequence,
// same enabling marking — as the serial one.
func TestExploreParallelCounterexampleIdentical(t *testing.T) {
	mod := dlxModule(t)
	ai := mod.Inst("G2_Mctrl/ai")
	if ai == nil {
		t.Fatal("G2_Mctrl/ai not found")
	}
	mod.Disconnect(ai, "Z")
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	serial := mustExplore(t, m, ExploreOptions{Parallelism: 1})
	if serial.Violation == nil {
		t.Fatal("serial search missed the cut acknowledge")
	}
	for _, j := range []int{2, 4} {
		par := mustExplore(t, m, ExploreOptions{Parallelism: j})
		if par.States != serial.States {
			t.Fatalf("-j %d explored %d states, serial %d", j, par.States, serial.States)
		}
		if !reflect.DeepEqual(par.Violation, serial.Violation) {
			t.Fatalf("-j %d counterexample differs:\n%+v\n---\n%+v", j, par.Violation, serial.Violation)
		}
	}
}

// TestExploreNoReduceParallelDeterministic covers the full-interleaving
// mode (drequiv -no-reduce) with a -max-states truncation: the truncation
// point and flags must not move with the worker count.
func TestExploreNoReduceParallelDeterministic(t *testing.T) {
	mod := dlxModule(t)
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	serial := mustExplore(t, m, ExploreOptions{NoReduce: true, MaxStates: 20_000, Parallelism: 1})
	if !serial.Truncated {
		t.Fatalf("expected a truncated full search, got %d states", serial.States)
	}
	par := mustExplore(t, m, ExploreOptions{NoReduce: true, MaxStates: 20_000, Parallelism: 4})
	if !bytes.Equal(jsonOf(t, par), jsonOf(t, serial)) {
		t.Fatal("-no-reduce -max-states report depends on the worker count")
	}
}

// TestExploreCancellation: a canceled context aborts the search with
// context.Canceled instead of returning a partial result.
func TestExploreCancellation(t *testing.T) {
	mod := dlxModule(t)
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := m.Explore(ctx, ExploreOptions{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("canceled exploration returned a result: %+v", res)
	}
}

// TestCrossValidateParallelDeterministic: the xval report — accepted event
// count, seed, traces — is identical at any worker count, because each
// trace derives its delay factors from the seed alone.
func TestCrossValidateParallelDeterministic(t *testing.T) {
	mod := dlxModule(t)
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := m.CrossValidate(context.Background(), mod, XValConfig{Traces: 3, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := m.CrossValidate(context.Background(), mod, XValConfig{Traces: 3, Seed: 7, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("xval result depends on the worker count:\n%+v\n---\n%+v", serial, par)
	}
	if serial.Events == 0 || serial.Divergence != nil {
		t.Fatalf("xval did not accept the clean DLX: %+v", serial)
	}
}

// TestCrossValidateCancellation: a canceled context aborts the trace fan-out.
func TestCrossValidateCancellation(t *testing.T) {
	mod := dlxModule(t)
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.CrossValidate(ctx, mod, XValConfig{Traces: 3, Seed: 7, Parallelism: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
