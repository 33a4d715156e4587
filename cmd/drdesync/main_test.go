package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
	"desync/internal/stdcells"
	"desync/internal/verilog"
	"desync/internal/vflow"
)

// End-to-end CLI flow on real files: generate the DLX, desynchronize it
// through run(), and verify every artifact re-reads.
func TestRunEndToEnd(t *testing.T) {
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
	out := filepath.Join(dir, "ddlx.v")
	sdcOut := filepath.Join(dir, "ddlx.sdc")
	blifOut := filepath.Join(dir, "ddlx.blif")
	tbOut := filepath.Join(dir, "tb.v")
	if _, err := run(context.Background(), runOpts{
		in: in, libVariant: "HS", out: out, sdcOut: sdcOut, blifOut: blifOut,
		tbOut: tbOut, Options: vflow.Options{Flow: core.Options{Period: 4.65, MuxTaps: true}},
	}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	// The desynchronized netlist re-imports cleanly.
	src, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := verilog.Read(string(src), stdcells.New(stdcells.HighSpeed), "")
	if err != nil {
		t.Fatal(err)
	}
	if errs := d2.Top.Check(); len(errs) > 0 {
		t.Fatalf("check: %v", errs[0])
	}
	if d2.Top.Port("rst_desync") == nil || d2.Top.Port("delsel[0]") == nil {
		t.Fatal("desynchronization ports missing")
	}
	// Constraints and BLIF landed.
	sdcText, err := os.ReadFile(sdcOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"create_clock", "set_disable_timing", "set_size_only"} {
		if !strings.Contains(string(sdcText), want) {
			t.Fatalf("SDC missing %s", want)
		}
	}
	blifText, err := os.ReadFile(blifOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blifText), ".model dlx") {
		t.Fatal("BLIF broken")
	}
	tbText, err := os.ReadFile(tbOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tbText), "rst_desync") {
		t.Fatal("testbench broken")
	}
}

// TestRunTwoPhaseBackend drives the CLI end to end with -backend twophase:
// the converted netlist must carry the two-phase reset port instead of the
// handshake one, the SDC must define both phase clocks, and the
// desync-only -tb output must be skipped, not written.
func TestRunTwoPhaseBackend(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "dlx2p.v")
	sdcOut := filepath.Join(dir, "dlx2p.sdc")
	tbOut := filepath.Join(dir, "tb.v")
	if _, err := run(context.Background(), runOpts{
		gen: "dlx", libVariant: "HS", out: out, sdcOut: sdcOut, tbOut: tbOut,
		Options: vflow.Options{Flow: core.Options{Backend: "twophase", Period: 4.65}},
	}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := verilog.Read(string(src), stdcells.New(stdcells.HighSpeed), "")
	if err != nil {
		t.Fatal(err)
	}
	if errs := d2.Top.Check(); len(errs) > 0 {
		t.Fatalf("check: %v", errs[0])
	}
	if d2.Top.Port("rst_2phase") == nil {
		t.Fatal("two-phase reset port missing")
	}
	if d2.Top.Port("rst_desync") != nil {
		t.Fatal("handshake reset port on a two-phase conversion")
	}
	sdcText, err := os.ReadFile(sdcOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Phi1", "Phi2", "set_disable_timing"} {
		if !strings.Contains(string(sdcText), want) {
			t.Fatalf("SDC missing %s", want)
		}
	}
	if _, err := os.Stat(tbOut); !os.IsNotExist(err) {
		t.Fatal("-tb wrote a testbench for the twophase backend")
	}

	// An unregistered backend fails with a staged error, not a panic.
	if _, err := run(context.Background(), runOpts{
		gen: "dlx", libVariant: "HS", out: filepath.Join(dir, "o.v"),
		Options: vflow.Options{Flow: core.Options{Backend: "fourphase", Period: 1}},
	}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "fourphase") {
		t.Fatalf("unknown backend not rejected: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	// Missing input file.
	if _, err := run(context.Background(), runOpts{
		in: filepath.Join(dir, "nope.v"), libVariant: "HS", out: filepath.Join(dir, "o.v"),
	}, io.Discard, io.Discard); err == nil {
		t.Fatal("expected missing-file error")
	}
	// Bad library variant.
	in := filepath.Join(dir, "x.v")
	os.WriteFile(in, []byte("module m (a); input a; endmodule"), 0o644)
	if _, err := run(context.Background(), runOpts{
		in: in, libVariant: "XX", out: filepath.Join(dir, "o.v"),
	}, io.Discard, io.Discard); err == nil {
		t.Fatal("expected library error")
	}
	// Unknown false-path net.
	lib := stdcells.New(stdcells.HighSpeed)
	d, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		t.Fatal(err)
	}
	dlxIn := filepath.Join(dir, "dlx.v")
	os.WriteFile(dlxIn, []byte(verilog.Write(d)), 0o644)
	if _, err := run(context.Background(), runOpts{
		in: dlxIn, libVariant: "HS", out: filepath.Join(dir, "o.v"),
		falsePaths: "no_such_net", Options: vflow.Options{Flow: core.Options{Period: 1}},
	}, io.Discard, io.Discard); err == nil {
		t.Fatal("expected false-path error")
	}
}
