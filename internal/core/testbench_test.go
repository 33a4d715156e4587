package core

import (
	"context"
	"strings"
	"testing"

	"desync/internal/designs"
)

// §4.8: the desynchronized testbench differs from the synchronous one only
// in replacing clock references with request/acknowledge handling.
func TestWriteTestbench(t *testing.T) {
	lib := hs()
	dsync, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		t.Fatal(err)
	}
	tbSync := WriteTestbench(dsync, nil, "clk", 4.65)
	if !strings.Contains(tbSync, "always #2.3250 clk = ~clk;") {
		t.Fatalf("synchronous testbench missing clock generator:\n%s", tbSync)
	}
	if !strings.Contains(tbSync, "module tb_dlx;") || !strings.Contains(tbSync, "dlx dut (") {
		t.Fatal("testbench skeleton broken")
	}

	ddes, err := designs.BuildDLX(lib, designs.TestProgram())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Convert(context.Background(), ddes, Options{Period: 4.65})
	if err != nil {
		t.Fatal(err)
	}
	tbDes := WriteTestbench(ddes, res, "", 4.65)
	if strings.Contains(tbDes, "always #") {
		t.Fatal("desynchronized testbench must not generate a clock")
	}
	if !strings.Contains(tbDes, "rst_desync = 1;") || !strings.Contains(tbDes, "rst_desync = 0; // release") {
		t.Fatalf("desynchronization reset sequence missing:\n%s", tbDes)
	}
	// Every environment handshake port created by the tool is driven.
	for _, port := range append(res.Insert.EnvRequests, res.Insert.EnvAcks...) {
		if !strings.Contains(tbDes, tbName(port)) {
			t.Fatalf("environment port %s not handled", port)
		}
	}
	// Bus-bit ports flatten to legal identifiers.
	if strings.Contains(tbDes, "watch[") {
		t.Fatal("bus-bit names not flattened")
	}
	if !strings.Contains(tbDes, "watch_0") {
		t.Fatal("flattened bus names missing")
	}
}
