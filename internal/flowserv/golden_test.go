package flowserv

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The golden byte-identity suite pins the default-backend artifacts of the
// three case studies plus one parametric spec across driver refactors: any
// change to the flow that alters a single byte of the exported netlist, the
// SDC constraints or the lint/static/equiv reports shows up as a digest
// mismatch here. Digests rather than full files keep testdata small (the
// ARM netlist alone is megabytes); a mismatch is re-derived locally with
// -update-golden and inspected through git.
//
// result.json is deliberately NOT pinned: it embeds the canonicalized
// options record, whose JSON shape is allowed to evolve with the API.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.txt from the current flow output")

const goldenFile = "testdata/golden_digests.txt"

var goldenCases = []struct {
	name      string
	gen       string
	opts      FlowOptions
	artifacts []string
}{
	{"dlx", "dlx", FlowOptions{Equiv: true},
		[]string{ArtifactNetlist, ArtifactConstraints, ArtifactLint, ArtifactStatic, ArtifactEquiv}},
	{"arm", "arm", FlowOptions{},
		[]string{ArtifactNetlist, ArtifactConstraints, ArtifactLint, ArtifactStatic}},
	{"fir", "fir", FlowOptions{},
		[]string{ArtifactNetlist, ArtifactConstraints, ArtifactLint, ArtifactStatic}},
	{"pipeline", "pipeline:depth=4,width=8,regions=6", FlowOptions{},
		[]string{ArtifactNetlist, ArtifactConstraints, ArtifactLint, ArtifactStatic}},
}

// goldenDigests runs one case through the same path the job server takes
// (validate, normalize, build, flow) and returns artifact -> sha256 hex.
func goldenDigests(t *testing.T, gen string, opts FlowOptions, names []string) map[string]string {
	t.Helper()
	req := JobRequest{Gen: gen, Options: opts}
	if err := req.validate(); err != nil {
		t.Fatal(err)
	}
	req.normalize()
	d, err := req.buildDesign()
	if err != nil {
		t.Fatal(err)
	}
	key, err := cacheKey(d, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	j := newJob("golden", &req, key, "", d.Top.Name)
	j.design = d
	arts, err := runFlow(context.Background(), j)
	if err != nil {
		t.Fatalf("flow: %v", err)
	}
	out := map[string]string{}
	for _, name := range names {
		b, ok := arts[name]
		if !ok {
			t.Fatalf("artifact %s missing", name)
		}
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

// readGoldenFile parses "case artifact digest" lines.
func readGoldenFile(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("no golden digest table (%v); run with -update-golden to create it", err)
	}
	defer f.Close()
	out := map[string]string{}
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
		out[parts[0]+" "+parts[1]] = parts[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGoldenArtifactsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite runs the full flow on four designs")
	}
	got := map[string]string{}
	for _, tc := range goldenCases {
		for art, digest := range goldenDigests(t, tc.gen, tc.opts, tc.artifacts) {
			got[tc.name+" "+art] = digest
		}
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# sha256 digests of default-backend flow artifacts, pinned across\n")
		b.WriteString("# driver refactors. Regenerate with:\n")
		b.WriteString("#   go test ./internal/flowserv/ -run TestGoldenArtifactsByteIdentical -update-golden\n")
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

	want := readGoldenFile(t)
	for k, wd := range want {
		gd, ok := got[k]
		if !ok {
			t.Errorf("%s: artifact no longer produced", k)
			continue
		}
		if gd != wd {
			t.Errorf("%s: digest %s, golden %s — default-backend output changed", k, gd, wd)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in the golden table; run -update-golden", k)
		}
	}
}
