package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/stdcells"
	"desync/internal/verilog"
	"desync/internal/vflow"
)

// TestEquivGateEndToEnd desynchronizes the DLX through run() with the
// formal gate enabled: the freshly inserted control network must prove all
// three properties, so the run exits clean.
func TestEquivGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	lib := stdcells.New(stdcells.HighSpeed)
	d, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "dlx.v")
	if err := os.WriteFile(in, []byte(verilog.Write(d)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), runOpts{
		in: in, libVariant: "HS", out: filepath.Join(dir, "ddlx.v"),
		Options: vflow.Options{Flow: core.Options{Period: 4.65}, Equiv: true, EquivXval: 1, EquivSeed: 5},
	}, io.Discard, io.Discard); err != nil {
		t.Fatalf("run with -equiv failed: %v", err)
	}
}
