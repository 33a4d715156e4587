package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"desync/internal/core"
	"desync/internal/vflow"
)

// CLI half of the golden byte-identity suite (the drserve half lives in
// internal/flowserv): the default-backend netlist and SDC the tool writes
// for the generated case studies are pinned by digest across driver
// refactors. Both front ends render internal/vflow, but the server derives
// a period when none is given and the CLI does not, so both are pinned.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.txt from the current tool output")

const goldenFile = "testdata/golden_digests.txt"

var goldenCases = []struct {
	name string
	o    runOpts
}{
	{"dlx", runOpts{gen: "dlx", libVariant: "HS", Options: vflow.Options{Flow: core.Options{Period: 4.65}}}},
	{"fir", runOpts{gen: "fir", libVariant: "HS", Options: vflow.Options{Flow: core.Options{Period: 6.0}}}},
	{"pipeline", runOpts{gen: "pipeline:depth=4,width=8,regions=6", libVariant: "HS"}},
}

func TestGoldenCLIArtifactsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite runs the full CLI flow on three designs")
	}
	got := map[string]string{}
	for _, tc := range goldenCases {
		dir := t.TempDir()
		o := tc.o
		o.out = filepath.Join(dir, "out.v")
		o.sdcOut = filepath.Join(dir, "out.sdc")
		if _, err := run(context.Background(), o, io.Discard, io.Discard); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for art, path := range map[string]string{"netlist.v": o.out, "constraints.sdc": o.sdcOut} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[tc.name+" "+art] = hex.EncodeToString(sum[:])
		}
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# sha256 digests of default-backend drdesync outputs. Regenerate with:\n")
		b.WriteString("#   go test ./cmd/drdesync/ -run TestGoldenCLIArtifactsByteIdentical -update-golden\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenFile)
		return
	}

	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("no golden digest table (%v); run with -update-golden to create it", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 3 {
			t.Fatalf("bad golden line %q", line)
		}
		want[parts[0]+" "+parts[1]] = parts[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for k, wd := range want {
		if got[k] != wd {
			t.Errorf("%s: digest %s, golden %s — default-backend output changed", k, got[k], wd)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in the golden table; run -update-golden", k)
		}
	}
}
