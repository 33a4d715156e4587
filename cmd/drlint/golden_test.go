package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"desync/internal/expt"
	"desync/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// goldenCompare asserts got matches the committed golden byte for byte, so
// any behavior drift in the lint derivation shows up as a diff, not as a
// silently different report.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// The -gen goldens pin the synchronous-netlist (NL-*) reports of both case
// studies through the real CLI entry point.
func TestGoldenGenReports(t *testing.T) {
	for _, gen := range []string{"dlx", "arm"} {
		t.Run(gen, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-gen", gen, "-json"}, &out, &errb); code != 0 {
				t.Fatalf("drlint -gen %s exited %d: %s", gen, code, errb.String())
			}
			goldenCompare(t, gen+".json", out.Bytes())
		})
	}
}

// The desync goldens pin the full DS-* derivation (regions, phases,
// channels, timing budgets) over both desynchronized case studies.
func TestGoldenDesyncDLX(t *testing.T) {
	f, err := expt.RunFlow("dlx", expt.FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := lint.Check(f.Design.Top, lint.Options{Desync: true, Constraints: f.Result.Constraints})
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "dlx_desync.json", append(out, '\n'))

	// The parallel timing cross-checks must reproduce the same golden at
	// GOMAXPROCS 1 and 4.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rep := lint.Check(f.Design.Top, lint.Options{Desync: true, Constraints: f.Result.Constraints})
		out, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, "dlx_desync.json", append(out, '\n'))
	}
}

func TestGoldenDesyncARM(t *testing.T) {
	f, err := expt.RunFlow("arm", expt.FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Linted without the generated constraints: the golden pins the whole
	// structural derivation plus the no-constraints advisory path.
	rep := lint.Check(f.Design.Top, lint.Options{Desync: true})
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "arm_desync.json", append(out, '\n'))
}
