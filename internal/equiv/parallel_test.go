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

// TestExploreParallelDeterministic is the explorer's determinism contract:
// the report is a function of the model and the options alone, so the DLX
// exploration at GOMAXPROCS 1, 4 and the host's default visits exactly the
// same reduced state space (pinned at dlxStates) and renders byte-identical
// JSON. Go randomizes map iteration on every range, so a search order that
// came to depend on the visited map would fail here.
func TestExploreParallelDeterministic(t *testing.T) {
	mod := converted(t, "dlx").Top
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 4, runtime.GOMAXPROCS(0)}
	var base []byte
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		res := mustExplore(t, m, ExploreOptions{})
		if res.States != dlxStates {
			t.Fatalf("GOMAXPROCS %d: %d markings, pinned %d", p, res.States, dlxStates)
		}
		if !res.Clean() {
			t.Fatalf("GOMAXPROCS %d: not clean: %+v", p, res.Violation)
		}
		got := jsonOf(t, res)
		if base == nil {
			base = got
		} else if !bytes.Equal(got, base) {
			t.Fatalf("GOMAXPROCS %d report differs from GOMAXPROCS %d:\n%s\n---\n%s", p, procs[0], got, base)
		}
	}
}

// TestExploreParallelCounterexampleIdentical pins the other half of the
// contract: on a broken network every exploration reconstructs the exact
// same counterexample — same violated rule, same firing sequence, same
// enabling marking — whatever GOMAXPROCS the caller runs at.
func TestExploreParallelCounterexampleIdentical(t *testing.T) {
	mod := converted(t, "dlx").Top
	ai := mod.Inst("G2_Mctrl/ai")
	if ai == nil {
		t.Fatal("G2_Mctrl/ai not found")
	}
	mod.Disconnect(ai, "Z")
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	first := mustExplore(t, m, ExploreOptions{})
	if first.Violation == nil {
		t.Fatal("search missed the cut acknowledge")
	}
	for _, p := range []int{2, 4} {
		runtime.GOMAXPROCS(p)
		again := mustExplore(t, m, ExploreOptions{})
		if again.States != first.States {
			t.Fatalf("GOMAXPROCS %d explored %d states, GOMAXPROCS 1 %d", p, again.States, first.States)
		}
		if !reflect.DeepEqual(again.Violation, first.Violation) {
			t.Fatalf("GOMAXPROCS %d counterexample differs:\n%+v\n---\n%+v", p, again.Violation, first.Violation)
		}
	}
}

// TestExploreNoReduceParallelDeterministic covers the full-interleaving
// mode (drequiv -no-reduce) with a -max-states truncation: the truncation
// point and flags must not move between explorations.
func TestExploreNoReduceParallelDeterministic(t *testing.T) {
	mod := converted(t, "dlx").Top
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	first := mustExplore(t, m, ExploreOptions{NoReduce: true, MaxStates: 20_000})
	if !first.Truncated {
		t.Fatalf("expected a truncated full search, got %d states", first.States)
	}
	runtime.GOMAXPROCS(4)
	again := mustExplore(t, m, ExploreOptions{NoReduce: true, MaxStates: 20_000})
	if !bytes.Equal(jsonOf(t, again), jsonOf(t, first)) {
		t.Fatal("-no-reduce -max-states report differs between explorations")
	}
}

// TestExploreCancellation: a canceled context aborts the search with
// context.Canceled instead of returning a partial result.
func TestExploreCancellation(t *testing.T) {
	mod := converted(t, "dlx").Top
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := m.Explore(ctx, ExploreOptions{})
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
	mod := converted(t, "dlx").Top
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := m.CrossValidate(context.Background(), mod, XValConfig{Traces: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	par, err := m.CrossValidate(context.Background(), mod, XValConfig{Traces: 3, Seed: 7})
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
	mod := converted(t, "dlx").Top
	m, err := FromNetwork(mod, ctrlnet.Derive(mod))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if _, err := m.CrossValidate(ctx, mod, XValConfig{Traces: 3, Seed: 7}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
