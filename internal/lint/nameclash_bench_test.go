package lint

import (
	"context"
	"testing"

	"desync/internal/core"
	"desync/internal/designs"
)

// nameClashSpec is the pre-grouped pipeline BenchmarkNameClash converts in
// its own four regions. After Substitute about half of its names carry
// escaped characters, so NL-NAME hashes tens of thousands of simple forms
// and finds no clash.
const nameClashSpec = "pipeline:depth=48,width=64,regions=4"

// BenchmarkNameClash times NL-NAME alone on the converted nameClashSpec
// pipeline, the state the Export boundary lints, and reports its
// allocations: a clean module must cost a few tables, not a string per
// renamed name.
func BenchmarkNameClash(b *testing.B) {
	d, err := designs.ParseSpec(nameClashSpec, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.Convert(context.Background(), d, core.Options{ManualGroups: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &Report{}
		r.checkNameClash(d.Top)
		if len(r.Findings) != 0 {
			b.Fatalf("converted %s has NL-NAME findings:\n%s", nameClashSpec, r.Text())
		}
	}
}
