package netlist_test

import (
	"testing"

	"desync/internal/designs"
	"desync/internal/stdcells"
	"desync/internal/verilog"
)

// TestTwoBuildsAgree builds one spec twice in one process. Each module's
// name index draws its own hash seed, so the two indexes place every name
// differently; the netlists must still write the same text and hash the
// same, and so must their re-imports.
func TestTwoBuildsAgree(t *testing.T) {
	lib := stdcells.New(stdcells.HighSpeed)
	var texts, hashes, reread [2]string
	for i := range 2 {
		d, err := designs.ParseSpec("pipeline:depth=6,width=16,regions=3", lib)
		if err != nil {
			t.Fatal(err)
		}
		texts[i], hashes[i] = verilog.Write(d), d.ContentHash()
		back, err := verilog.Read(texts[i], lib, "")
		if err != nil {
			t.Fatal(err)
		}
		reread[i] = back.ContentHash()
	}
	if texts[0] != texts[1] {
		t.Error("two builds of one spec wrote different Verilog")
	}
	if hashes[0] != hashes[1] || reread[0] != reread[1] {
		t.Errorf("two builds of one spec hash differently: %s / %s, re-read %s / %s",
			hashes[0], hashes[1], reread[0], reread[1])
	}
}

// BenchmarkModuleBuild generates a pipeline of about 12k instances:
// name-index inserts and lookups, generated names and connections,
// nothing else.
func BenchmarkModuleBuild(b *testing.B) {
	lib := stdcells.New(stdcells.HighSpeed)
	b.ReportAllocs()
	for range b.N {
		if _, err := designs.ParseSpec("pipeline:depth=48,width=64,regions=4", lib); err != nil {
			b.Fatal(err)
		}
	}
}
