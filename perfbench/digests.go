package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Digest sources. The two golden tables belong to the repository's own
// test suites and are only read; the benchmark pins every other output in
// its own table, regenerated with `perfbench -pin`.
const (
	cliGoldenFile   = "cmd/drdesync/testdata/golden_digests.txt"
	serveGoldenFile = "internal/flowserv/testdata/golden_digests.txt"
	ownDigestFile   = "perfbench/testdata/digests.txt"
)

// digests checks output bytes against pinned sha256 digests. In pin mode
// it records the digests of every key no golden table covers instead.
type digests struct {
	mu   sync.Mutex
	want map[string]string
	// golden marks keys owned by a repository golden table: never re-pinned.
	golden map[string]bool
	pin    bool
	rec    map[string]string
}

func loadDigests(root string, pin bool) (*digests, error) {
	d := &digests{want: map[string]string{}, golden: map[string]bool{}, pin: pin, rec: map[string]string{}}
	for _, src := range []struct{ file, prefix string }{
		{cliGoldenFile, "cli-golden"},
		{serveGoldenFile, "serve-golden"},
		{ownDigestFile, ""},
	} {
		err := readDigestFile(filepath.Join(root, src.file), func(key, sum string) {
			if src.prefix != "" {
				key = src.prefix + " " + key
				d.golden[key] = true
			}
			d.want[key] = sum
		})
		if err != nil && !(pin && src.prefix == "") {
			return nil, err
		}
	}
	return d, nil
}

// readDigestFile parses "field... sha256" lines; # starts a comment.
func readDigestFile(path string, add func(key, sum string)) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("reading pinned digests: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("%s: bad digest line %q", path, line)
		}
		add(strings.Join(fields[:len(fields)-1], " "), fields[len(fields)-1])
	}
	return sc.Err()
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check compares b against the digest pinned under key.
func (d *digests) check(key string, b []byte) error {
	sum := sha256hex(b)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pin && !d.golden[key] {
		d.rec[key] = sum
		return nil
	}
	want, ok := d.want[key]
	if !ok {
		return fmt.Errorf("%s: no pinned digest (regenerate with perfbench -pin)", key)
	}
	if sum != want {
		return fmt.Errorf("%s: digest %s, pinned %s", key, sum[:16], want[:16])
	}
	return nil
}

// writePinned writes the recorded digests as the benchmark's own table.
func (d *digests) writePinned(root string) error {
	keys := make([]string, 0, len(d.rec))
	for k := range d.rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# sha256 digests of benchmark outputs that no repository golden table pins.\n")
	b.WriteString("# Regenerate from the repository root with: bash perfbench/run.sh -pin\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, d.rec[k])
	}
	path := filepath.Join(root, ownDigestFile)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// cliDigestKey names one artifact of a CLI job. The desync DLX and FIR runs
// are the ones cmd/drdesync's golden suite pins.
func cliDigestKey(w *cliWorkload, j cliJob, art string) string {
	if w.name == "paper" && j.backend == "desync" && (j.spec == "dlx" || j.spec == "fir") {
		return fmt.Sprintf("cli-golden %s %s", j.spec, art)
	}
	if w.name == "paper" {
		return fmt.Sprintf("%s %s %s", w.name, j.name, art)
	}
	return fmt.Sprintf("%s v%d %s %s", w.name, w.variant, j.name, art)
}
