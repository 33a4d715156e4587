package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// The goldens pin the full model extraction and exploration of both case
// studies — region count, signal count, reduced state count and every proved
// property — so a refactor of the derivation cannot silently change what is
// verified.
func TestGoldenReports(t *testing.T) {
	for _, gen := range []string{"dlx", "arm"} {
		t.Run(gen, func(t *testing.T) {
			if gen == "arm" && testing.Short() {
				t.Skip("ARM exploration takes ~15s; skipped with -short")
			}
			var out, errb bytes.Buffer
			if code := run([]string{"-gen", gen, "-json"}, &out, &errb); code != 0 {
				t.Fatalf("drequiv -gen %s exited %d: %s", gen, code, errb.String())
			}
			path := filepath.Join("testdata", "golden", gen+".json")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("report drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
			}
		})
	}
}

// The static goldens pin the -static report the same way: verdicts,
// period bound, critical cycle and the per-region table must stay
// byte-identical, and a second run in the same process must reproduce
// the first run exactly (the report promises determinism at any GOMAXPROCS).
func TestGoldenStaticReports(t *testing.T) {
	for _, gen := range []string{"dlx", "fir"} {
		t.Run(gen, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-gen", gen, "-static", "-json"}, &out, &errb); code != 0 {
				t.Fatalf("drequiv -gen %s -static exited %d: %s", gen, code, errb.String())
			}
			var again bytes.Buffer
			if code := run([]string{"-gen", gen, "-static", "-json"}, &again, &errb); code != 0 {
				t.Fatalf("second run exited %d: %s", code, errb.String())
			}
			if !bytes.Equal(out.Bytes(), again.Bytes()) {
				t.Error("static report not byte-identical across runs")
			}
			path := filepath.Join("testdata", "golden", gen+"-static.json")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("static report drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
			}
		})
	}
}
