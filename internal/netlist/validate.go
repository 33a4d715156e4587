package netlist

import (
	"fmt"
	"slices"
	"strings"
)

// ValidateOptions tunes the invariant checker for mid-flow snapshots.
type ValidateOptions struct {
	// AllowUndriven permits nets with sinks but no driver: between flip-flop
	// substitution and controller insertion the latch-enable nets legally
	// wait for their driver.
	AllowUndriven bool
}

// maxValidationErrors bounds Validate's report. Validation is a
// diagnostic, not a dump of every consequence of one broken link.
const maxValidationErrors = 64

// Validation rule tags. Each ValidationError carries one, so consumers
// (drlint wraps them as findings) can classify without parsing messages.
const (
	VRuleIndex     = "index"     // name index disagrees with the slices
	VRulePort      = "port"      // port binding broken or foreign
	VRuleInstKind  = "inst-kind" // instance without exactly one of cell/submodule
	VRuleConn      = "conn"      // connection to nil/foreign net or unknown pin
	VRuleDriver    = "driver"    // net/driver bookkeeping mismatch
	VRuleSink      = "sink"      // net/sink bookkeeping mismatch
	VRuleUndriven  = "undriven"  // net with sinks but no driver
	VRuleTruncated = "truncated" // report hit its bound; Msg carries the count
)

// ValidationError is one structural invariant violation, tagged with the
// rule that fired so downstream tooling can classify it without string
// matching.
type ValidationError struct {
	Rule   string // one of the VRule* constants
	Module string
	Msg    string
}

// Error renders "module: message" like the old bare errors did.
func (e ValidationError) Error() string { return e.Module + ": " + e.Msg }

// Validate checks the module's structural invariants beyond what Check
// covers: the name indices agree with the slices, every connection is
// bidirectionally consistent (instance pin ↔ net driver/sink lists), pins
// exist on their cells, and nets referenced by instances belong to the
// module. It is run between desynchronization stages so a stage that
// corrupts the netlist is caught at its own boundary instead of surfacing
// as a wrong answer (or a panic) stages later.
//
// A module unchanged since its last clean verdict (same ModSeq, and that
// verdict reached under an AllowUndriven no looser than opts') is clean
// without a look; like the ModSeq derivation caches, this trusts that
// edits go through the mutators (SetConnUnchecked, for one, does not move
// ModSeq). Otherwise a boolean scan over the record arrays, using the
// module's epoch-mark scratch, decides cleanliness without allocating, and
// the diagnostic pass (which builds maps and formats messages) runs only
// when that scan finds a fault.
//
// At most 64 violations are reported; when more exist, the final entry is
// tagged VRuleTruncated and counts the suppressed remainder.
func (m *Module) Validate(opts ValidateOptions) []ValidationError {
	m.compact()
	if v := m.valid; v.ok && v.seq == m.modseq && (!v.allowUndriven || opts.AllowUndriven) {
		return nil
	}
	if m.cleanScan(opts.AllowUndriven) {
		m.noteClean(opts)
		return nil
	}
	errs := m.validateFull(opts)
	if len(errs) == 0 {
		m.noteClean(opts)
	}
	return errs
}

// nextEpoch advances the validator mark epoch, clearing stale marks on the
// (practically unreachable) uint32 wraparound.
func (m *Module) nextEpoch() uint32 {
	m.epoch++
	if m.epoch == 0 {
		for _, in := range m.Insts {
			for i := range in.conns {
				in.conns[i].mark = 0
			}
		}
		m.epoch = 1
	}
	return m.epoch
}

// netEndpointsClean checks one net's bookkeeping: the driver points back at
// a live connection, every sink resolves to a live connection on this net
// (stamping the entry's mark to catch the same PinRef listed twice), and —
// unless undriven nets are allowed — a net with sinks has a driver. Port
// sinks are appended to *portRefs for the caller's duplicate check.
func (m *Module) netEndpointsClean(n *Net, epoch uint32, allowUndriven bool, portRefs *[]PinRef) bool {
	if d := n.Driver; d.Inst != nil {
		if !m.containsInst(d.Inst) || d.Inst.Conn(d.Pin) != n {
			return false
		}
	}
	for _, s := range n.Sinks {
		if s.Inst == nil {
			*portRefs = append(*portRefs, s)
			continue
		}
		if !m.containsInst(s.Inst) {
			return false
		}
		e := s.Inst.connEntry(s.Pin)
		if e == nil || e.Net != n || e.mark == epoch {
			return false
		}
		e.mark = epoch
	}
	if !allowUndriven && len(n.Sinks) > 0 && !n.HasDriver() {
		return false
	}
	return true
}

// instConnClean checks one connection of an instance: the net is non-nil
// and belongs to the module, the pin exists on the cell or submodule, an
// output pin is recorded as the net's driver, and an input pin was resolved
// from some net's sink list during this pass (mark == epoch).
func (m *Module) instConnClean(in *Inst, pc *PinConn, epoch uint32) bool {
	if pc.Net == nil || !m.containsNet(pc.Net) {
		return false
	}
	var dir PinDir
	if in.Cell != nil {
		pd := in.Cell.Pin(pc.Pin)
		if pd == nil {
			return false
		}
		dir = pd.Dir
	} else {
		p := in.Sub.Port(pc.Pin)
		if p == nil {
			return false
		}
		dir = p.Dir
	}
	ref := PinRef{Inst: in, Pin: pc.Pin}
	if dir == Out {
		return pc.Net.Driver == ref
	}
	return pc.mark == epoch
}

// dupPortRefs reports whether the collected port-sink references contain a
// duplicate (the same module port listed as a sink more than once, on one
// net or across nets). Sorts in place using the caller's scratch.
func dupPortRefs(refs []PinRef) bool {
	if len(refs) < 2 {
		return false
	}
	slices.SortFunc(refs, func(a, b PinRef) int { return strings.Compare(a.Pin, b.Pin) })
	for i := 1; i < len(refs); i++ {
		if refs[i].Pin == refs[i-1].Pin {
			return true
		}
	}
	return false
}

// cleanScan is the allocation-free full cleanliness check: true means the
// module would produce zero validation errors. Any anomaly returns false
// and the caller runs the diagnostic pass.
func (m *Module) cleanScan(allowUndriven bool) bool {
	if len(m.netByName) != len(m.Nets) || len(m.instByName) != len(m.Insts) {
		return false
	}
	for _, n := range m.Nets {
		if id, ok := m.netByName[n.Name]; !ok || m.netsByID[id] != n {
			return false
		}
	}
	for _, in := range m.Insts {
		if id, ok := m.instByName[in.Name]; !ok || m.instsByID[id] != in {
			return false
		}
		if (in.Cell == nil) == (in.Sub == nil) {
			return false
		}
	}
	for _, p := range m.Ports {
		if p.Net == nil || !m.containsNet(p.Net) {
			return false
		}
	}
	epoch := m.nextEpoch()
	portRefs := m.scratch.refs[:0]
	clean := true
	for _, n := range m.Nets {
		if !m.netEndpointsClean(n, epoch, allowUndriven, &portRefs) {
			clean = false
			break
		}
	}
	if clean && dupPortRefs(portRefs) {
		clean = false
	}
	m.scratch.refs = portRefs
	if !clean {
		return false
	}
	for _, in := range m.Insts {
		for i := range in.conns {
			if !m.instConnClean(in, &in.conns[i], epoch) {
				return false
			}
		}
	}
	return true
}

// validateFull is the diagnostic pass: the original full-module algorithm,
// kept verbatim (message formats and rule tags unchanged) so a faulty module
// reports exactly what it always did.
func (m *Module) validateFull(opts ValidateOptions) []ValidationError {
	var errs []ValidationError
	suppressed := 0
	report := func(rule, format string, args ...any) {
		if len(errs) < maxValidationErrors {
			errs = append(errs, ValidationError{Rule: rule, Module: m.Name, Msg: fmt.Sprintf(format, args...)})
		} else {
			suppressed++
		}
	}

	// Name indices agree with the slices.
	inNets := make(map[*Net]bool, len(m.Nets))
	for _, n := range m.Nets {
		inNets[n] = true
		if id, ok := m.netByName[n.Name]; !ok || m.netsByID[id] != n {
			report(VRuleIndex, "net %q missing from or mismatched in the name index", n.Name)
		}
	}
	if len(m.netByName) != len(m.Nets) {
		report(VRuleIndex, "net index has %d entries for %d nets", len(m.netByName), len(m.Nets))
	}
	inInsts := make(map[*Inst]bool, len(m.Insts))
	for _, in := range m.Insts {
		inInsts[in] = true
		if id, ok := m.instByName[in.Name]; !ok || m.instsByID[id] != in {
			report(VRuleIndex, "instance %q missing from or mismatched in the name index", in.Name)
		}
	}
	if len(m.instByName) != len(m.Insts) {
		report(VRuleIndex, "instance index has %d entries for %d instances", len(m.instByName), len(m.Insts))
	}

	// Ports bind to nets of this module.
	for _, p := range m.Ports {
		if p.Net == nil {
			report(VRulePort, "port %s has no net", p.Name)
			continue
		}
		if !inNets[p.Net] {
			report(VRulePort, "port %s bound to foreign net %q", p.Name, p.Net.Name)
		}
	}

	// Instance connections: pin exists, net belongs to the module, and the
	// net's driver/sink bookkeeping lists exactly this endpoint.
	sinkCount := map[PinRef]int{}
	for _, n := range m.Nets {
		for _, s := range n.Sinks {
			sinkCount[s]++
			if sinkCount[s] > 1 {
				report(VRuleSink, "net %s lists sink %s %d times", n.Name, s, sinkCount[s])
			}
		}
	}
	for _, in := range m.Insts {
		if (in.Cell == nil) == (in.Sub == nil) {
			report(VRuleInstKind, "instance %s must reference exactly one of cell and submodule", in.Name)
			continue
		}
		for _, pc := range in.Conns() {
			pin, n := pc.Pin, pc.Net
			if n == nil {
				report(VRuleConn, "%s/%s connected to nil net", in.Name, pin)
				continue
			}
			if !inNets[n] {
				report(VRuleConn, "%s/%s connected to foreign net %q", in.Name, pin, n.Name)
				continue
			}
			dir, err := m.pinDir(in, pin)
			if err != nil {
				report(VRuleConn, "%v", err)
				continue
			}
			ref := PinRef{Inst: in, Pin: pin}
			if dir == Out {
				if n.Driver != ref {
					report(VRuleDriver, "%s drives net %s but the net records driver %s", ref, n.Name, n.Driver)
				}
			} else if sinkCount[ref] == 0 {
				report(VRuleSink, "%s reads net %s but is not in its sink list", ref, n.Name)
			}
		}
	}

	// Net endpoints point back at real connections.
	for _, n := range m.Nets {
		if d := n.Driver; d.Inst != nil {
			if !inInsts[d.Inst] {
				report(VRuleDriver, "net %s driven by removed instance %s", n.Name, d.Inst.Name)
			} else if d.Inst.Conn(d.Pin) != n {
				report(VRuleDriver, "net %s records driver %s which is connected elsewhere", n.Name, d)
			}
		}
		for _, s := range n.Sinks {
			if s.Inst == nil {
				continue
			}
			if !inInsts[s.Inst] {
				report(VRuleSink, "net %s sinks removed instance %s", n.Name, s.Inst.Name)
			} else if s.Inst.Conn(s.Pin) != n {
				report(VRuleSink, "net %s records sink %s which is connected elsewhere", n.Name, s)
			}
		}
		if !opts.AllowUndriven && len(n.Sinks) > 0 && !n.HasDriver() {
			report(VRuleUndriven, "net %s has sinks but no driver", n.Name)
		}
	}
	if suppressed > 0 {
		errs = append(errs, ValidationError{
			Rule:   VRuleTruncated,
			Module: m.Name,
			Msg:    fmt.Sprintf("%d further validation errors suppressed (limit %d)", suppressed, maxValidationErrors),
		})
	}
	return errs
}
