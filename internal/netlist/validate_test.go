package netlist

import (
	"fmt"
	"strings"
	"testing"
)

// Validate's errors are rule-tagged and, past 64 violations, the report
// announces how many it suppressed instead of silently clipping.
func TestValidateRuleTagsAndTruncation(t *testing.T) {
	lib := NewLibrary("tl", "HS")
	buf := lib.Add(&CellDef{
		Name: "BUF", Kind: KindComb, Area: 1,
		Pins: []PinDef{{Name: "A", Dir: In}, {Name: "Z", Dir: Out}},
	})

	m := NewModule("bad")
	// Undriven nets with sinks: one finding each.
	addUndriven := func(from, to int) {
		for i := from; i < to; i++ {
			in := m.AddInst(fmt.Sprintf("g%d", i), buf)
			if err := m.Connect(in, "A", m.AddNet(fmt.Sprintf("w%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n = 10
	addUndriven(0, n)

	errs := m.Validate(ValidateOptions{})
	if len(errs) != n {
		t.Fatalf("want %d errors, got %d", n, len(errs))
	}
	for _, e := range errs {
		if e.Rule != VRuleUndriven {
			t.Fatalf("want rule %q, got %q (%s)", VRuleUndriven, e.Rule, e.Msg)
		}
		if e.Module != "bad" {
			t.Fatalf("module not recorded: %+v", e)
		}
		if !strings.Contains(e.Error(), "bad: ") {
			t.Fatalf("Error() lost the module prefix: %q", e.Error())
		}
	}

	// Six past the bound: 64 errors plus a marker counting the rest.
	addUndriven(n, maxValidationErrors+6)
	errs = m.Validate(ValidateOptions{})
	if len(errs) != maxValidationErrors+1 {
		t.Fatalf("want %d errors + truncation marker, got %d", maxValidationErrors, len(errs))
	}
	last := errs[len(errs)-1]
	if last.Rule != VRuleTruncated {
		t.Fatalf("last error not the truncation marker: %+v", last)
	}
	if !strings.Contains(last.Msg, "6 further") {
		t.Fatalf("truncation count wrong: %q", last.Msg)
	}
}
