package core

import (
	"sort"
	"strconv"

	"desync/internal/handshake"
	"desync/internal/netlist"
	"desync/internal/sta"
)

// underMarginRegions flags regions whose sized element delay falls short of
// the measured budget: the matched element no longer matches. The per-level
// delay comes from the same resolver the sizing uses, so the audit can
// never apply a different quantum than the chain it audits was built with.
func underMarginRegions(lib *netlist.Library, ddg *DDG, levels map[int]int, rds map[int]*sta.RegionDelay) []int {
	level, err := handshake.DelayLevel(lib)
	if err != nil || level <= 0 {
		return nil
	}
	var under []int
	for _, g := range ddg.Nodes {
		rd := rds[g]
		if rd == nil {
			continue
		}
		if float64(levels[g])*level < rd.Budget() {
			under = append(under, g)
		}
	}
	sort.Ints(under)
	return under
}

// DisabledArcMap converts the generated loop-breaking constraints into the
// STA option format.
func (r *Result) DisabledArcMap() map[sta.ArcKey]bool {
	out := map[sta.ArcKey]bool{}
	for _, da := range r.Constraints.Disabled {
		out[sta.ArcKey{Inst: da.Inst, From: da.From, To: da.To}] = true
	}
	return out
}

// SimpleName rewrites one escaped/hierarchical identifier into a plain one
// (§3.2.1 "escaped names are substituted by simple ones"), preserving the
// bus-bit [n] suffix so the bus heuristic keeps working. Identifiers that
// are already plain come back unchanged, without allocating. The lint
// engine uses the same mapping to warn about names that would collide
// after simplification.
func SimpleName(s string) string {
	out, changed := AppendSimpleName(nil, s)
	if !changed {
		return s
	}
	return string(out)
}

// AppendSimpleName appends SimpleName(s) to dst and reports true when the
// simple form differs from s. When s is already plain it appends nothing
// and reports false, so a caller that only needs the changed names (or
// their hashes) can reuse one buffer and allocate nothing.
func AppendSimpleName(dst []byte, s string) ([]byte, bool) {
	base, idx, isBus := netlist.BusBase(s)
	body := s
	if isBus {
		body = base
	}
	first := 0
	for first < len(body) && plainChar(body, first) {
		first++
	}
	if first == len(body) {
		return dst, false
	}
	dst = append(dst, body[:first]...)
	for i := first; i < len(body); i++ {
		if plainChar(body, i) {
			dst = append(dst, body[i])
		} else {
			dst = append(dst, '_')
		}
	}
	if isBus {
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(idx), 10)
		dst = append(dst, ']')
	}
	return dst, true
}

// plainChar reports whether the identifier byte at i may stay as it is in
// a simple name: a letter, '_' or '$' anywhere, a digit after the first
// byte.
func plainChar(s string, i int) bool {
	c := s[i]
	return c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		(i > 0 && c >= '0' && c <= '9')
}

// SimplifyNames applies SimpleName to every net of the module, skipping
// renames that would collide. Returns the number of renamed nets.
func SimplifyNames(m *netlist.Module) int {
	renamed := 0
	simple := SimpleName
	taken := map[string]bool{}
	for _, n := range m.Nets {
		taken[n.Name] = true
	}
	for _, n := range m.Nets {
		ns := simple(n.Name)
		if ns == n.Name || taken[ns] {
			continue
		}
		delete(taken, n.Name)
		taken[ns] = true
		if err := m.RenameNet(n, ns); err != nil {
			continue
		}
		renamed++
	}
	return renamed
}
