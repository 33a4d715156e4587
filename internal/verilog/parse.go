package verilog

import (
	"fmt"
	"strconv"
	"strings"

	"desync/internal/netlist"
)

// srcRange is a declared [msb:lsb] range.
type srcRange struct{ msb, lsb int }

func (r srcRange) width() int {
	if r.msb >= r.lsb {
		return r.msb - r.lsb + 1
	}
	return r.lsb - r.msb + 1
}

// bits returns the bit indices MSB-first.
func (r srcRange) bits() []int {
	out := make([]int, 0, r.width())
	if r.msb >= r.lsb {
		for i := r.msb; i >= r.lsb; i-- {
			out = append(out, i)
		}
	} else {
		for i := r.msb; i <= r.lsb; i++ {
			out = append(out, i)
		}
	}
	return out
}

// appendBits appends the references base[i] over the range, MSB-first.
func (r srcRange) appendBits(out []srcRef, base string) []srcRef {
	step := 1
	if r.msb >= r.lsb {
		step = -1
	}
	for i := r.msb; ; i += step {
		out = append(out, srcRef{name: netlist.BusBit(base, i), cval: -1})
		if i == r.lsb {
			return out
		}
	}
}

// srcRef is a single-bit reference after expansion: a net name, or a
// constant, or explicitly open.
type srcRef struct {
	name string // "" for constants/open
	cval int8   // 0 or 1 for constants, -1 otherwise
	open bool
}

// srcConn connects an instance pin (single bit, possibly "base[idx]") to a
// reference list (MSB-first before pin expansion).
type srcConn struct {
	pin  string // "" for positional
	refs []srcRef
}

type srcInst struct {
	cell, name string
	conns      []srcConn
	positional bool
	line       int
}

type srcAssign struct {
	lhs, rhs []srcRef
	line     int
}

type srcModule struct {
	name      string
	portOrder []string // base names in header order
	dirs      map[string]netlist.PinDir
	ranges    map[string]srcRange // declared ranges (ports and wires)
	scalars   map[string]bool     // declared scalar wires/ports
	insts     []srcInst
	assigns   []srcAssign
}

func (m *srcModule) declWidth(name string) (srcRange, bool) {
	r, ok := m.ranges[name]
	return r, ok
}

// parser over the token stream. Tokens are pulled from the lexer on demand
// with one token of lookahead; a lexing error surfaces as EOF plus lexErr so
// the grammar unwinds normally and parseSource reports the scan failure.
type parser struct {
	lx     *lexer
	tok    token // current lookahead
	lexErr error

	// Scratch for the instance being parsed: its connections and all their
	// references, copied out at the end in one exactly sized slice each.
	conns []srcConn
	refs  []srcRef
}

func newParser(src string) *parser {
	p := &parser{lx: &lexer{src: src, line: 1}}
	p.advance()
	return p
}

func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	t, err := p.lx.next()
	if err != nil {
		p.lexErr = err
		p.tok = token{kind: tEOF, line: p.lx.line}
		return
	}
	p.tok = t
}

func (p *parser) peek() token { return p.tok }
func (p *parser) next() token { t := p.tok; p.advance(); return t }
func (p *parser) atEOF() bool { return p.tok.kind == tEOF }

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tPunct || t.text != s {
		return fmt.Errorf("verilog: line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.next()
	if t.kind != tIdent {
		return t, fmt.Errorf("verilog: line %d: expected identifier, got %q", t.line, t.text)
	}
	return t, nil
}

// identName strips the escape backslash: netlist names never carry it.
func identName(t token) string { return strings.TrimPrefix(t.text, "\\") }

// parseSource parses all modules in the source.
func parseSource(src string) ([]*srcModule, error) {
	p := newParser(src)
	var mods []*srcModule
	for !p.atEOF() {
		t := p.next()
		if t.kind != tIdent || t.text != "module" {
			return nil, fmt.Errorf("verilog: line %d: expected 'module', got %q", t.line, t.text)
		}
		m, err := p.parseModule()
		if err != nil {
			if p.lexErr != nil {
				return nil, p.lexErr
			}
			return nil, err
		}
		mods = append(mods, m)
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if len(mods) == 0 {
		return nil, fmt.Errorf("verilog: no modules in source")
	}
	return mods, nil
}

func (p *parser) parseModule() (*srcModule, error) {
	nameTok, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &srcModule{
		name:    identName(nameTok),
		dirs:    map[string]netlist.PinDir{},
		ranges:  map[string]srcRange{},
		scalars: map[string]bool{},
		// A typical cell instantiation spends ~60 source bytes; pre-sizing
		// the instance slice keeps million-gate imports from repeatedly
		// reallocating (and zero-filling) a many-MB backing array.
		insts: make([]srcInst, 0, (len(p.lx.src)-p.lx.pos)/64),
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for p.peek().kind != tPunct || p.peek().text != ")" {
		t := p.next()
		if t.kind == tPunct && t.text == "," {
			continue
		}
		if t.kind != tIdent {
			return nil, fmt.Errorf("verilog: line %d: bad port list token %q", t.line, t.text)
		}
		m.portOrder = append(m.portOrder, identName(t))
	}
	p.next() // ')'
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}

	for {
		t := p.peek()
		if t.kind == tEOF {
			return nil, fmt.Errorf("verilog: line %d: missing endmodule for %s", t.line, m.name)
		}
		if t.kind == tIdent && t.text == "endmodule" {
			p.next()
			return m, nil
		}
		switch {
		case t.kind == tIdent && (t.text == "input" || t.text == "output" || t.text == "inout"):
			if err := p.parseDecl(m, t.text); err != nil {
				return nil, err
			}
		case t.kind == tIdent && t.text == "wire":
			if err := p.parseDecl(m, "wire"); err != nil {
				return nil, err
			}
		case t.kind == tIdent && t.text == "assign":
			if err := p.parseAssign(m); err != nil {
				return nil, err
			}
		case t.kind == tIdent:
			if err := p.parseInst(m); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("verilog: line %d: unexpected token %q in module %s", t.line, t.text, m.name)
		}
	}
}

// parseDecl handles: input [7:0] a, b; / wire x; etc.
func (p *parser) parseDecl(m *srcModule, kind string) error {
	p.next() // keyword
	var rng *srcRange
	if p.peek().kind == tPunct && p.peek().text == "[" {
		r, err := p.parseRange()
		if err != nil {
			return err
		}
		rng = &r
	}
	for {
		t, err := p.expectIdent()
		if err != nil {
			return err
		}
		name := identName(t)
		// Redeclaration with the same shape is normal netlist style
		// (e.g. "output [7:0] q; wire [7:0] q;"); a shape conflict is not.
		if rng != nil {
			if m.scalars[name] {
				return fmt.Errorf("verilog: line %d: %s redeclared as a bus (was scalar)", t.line, name)
			}
			if prev, ok := m.ranges[name]; ok && prev != *rng {
				return fmt.Errorf("verilog: line %d: %s redeclared as [%d:%d] (was [%d:%d])",
					t.line, name, rng.msb, rng.lsb, prev.msb, prev.lsb)
			}
			m.ranges[name] = *rng
		} else {
			if _, ok := m.ranges[name]; ok {
				return fmt.Errorf("verilog: line %d: %s redeclared as a scalar (was a bus)", t.line, name)
			}
			m.scalars[name] = true
		}
		switch kind {
		case "input":
			m.dirs[name] = netlist.In
		case "output":
			m.dirs[name] = netlist.Out
		case "inout":
			m.dirs[name] = netlist.InOut
		}
		sep := p.next()
		if sep.kind == tPunct && sep.text == ";" {
			return nil
		}
		if sep.kind != tPunct || sep.text != "," {
			return fmt.Errorf("verilog: line %d: expected ',' or ';' in declaration", sep.line)
		}
	}
}

func (p *parser) parseRange() (srcRange, error) {
	if err := p.expectPunct("["); err != nil {
		return srcRange{}, err
	}
	msb, err := p.parseInt()
	if err != nil {
		return srcRange{}, err
	}
	if err := p.expectPunct(":"); err != nil {
		return srcRange{}, err
	}
	lsb, err := p.parseInt()
	if err != nil {
		return srcRange{}, err
	}
	if err := p.expectPunct("]"); err != nil {
		return srcRange{}, err
	}
	return srcRange{msb, lsb}, nil
}

func (p *parser) parseInt() (int, error) {
	t := p.next()
	if t.kind != tNumber {
		return 0, fmt.Errorf("verilog: line %d: expected number, got %q", t.line, t.text)
	}
	v, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("verilog: line %d: bad number %q", t.line, t.text)
	}
	return v, nil
}

// parseAssign handles: assign lhs = rhs;
func (p *parser) parseAssign(m *srcModule) error {
	t := p.next() // 'assign'
	lhs, err := p.parseRefList(m, nil)
	if err != nil {
		return err
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	rhs, err := p.parseRefList(m, nil)
	if err != nil {
		return err
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	if len(lhs) != len(rhs) {
		return fmt.Errorf("verilog: line %d: assign width mismatch (%d vs %d)", t.line, len(lhs), len(rhs))
	}
	m.assigns = append(m.assigns, srcAssign{lhs: lhs, rhs: rhs, line: t.line})
	return nil
}

// parseInst handles: CELL instname ( .A(x), .Z(y) ); or positional.
func (p *parser) parseInst(m *srcModule) error {
	cellTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	inst := srcInst{cell: identName(cellTok), name: identName(nameTok), line: cellTok.line}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	// Every connection appends its references to the scratch refs, and
	// only the length of its refs field counts until the instance is
	// complete: then they are all copied into one exactly sized slice.
	conns, refs := p.conns[:0], p.refs[:0]
	first := true
	for {
		t := p.peek()
		if t.kind == tPunct && t.text == ")" {
			p.next()
			break
		}
		if !first {
			if err := p.expectPunct(","); err != nil {
				return err
			}
		}
		first = false
		if p.peek().kind == tPunct && p.peek().text == "." {
			p.next()
			pinTok, err := p.expectIdent()
			if err != nil {
				return err
			}
			if err := p.expectPunct("("); err != nil {
				return err
			}
			lo := len(refs)
			if p.peek().kind == tPunct && p.peek().text == ")" {
				refs = append(refs, srcRef{open: true, cval: -1})
			} else {
				refs, err = p.parseRefList(m, refs)
				if err != nil {
					return err
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			conns = append(conns, srcConn{pin: identName(pinTok), refs: refs[lo:]})
		} else {
			lo := len(refs)
			refs, err = p.parseRefList(m, refs)
			if err != nil {
				return err
			}
			inst.positional = true
			conns = append(conns, srcConn{refs: refs[lo:]})
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	own := append([]srcRef(nil), refs...)
	inst.conns = append([]srcConn(nil), conns...)
	for i, off := 0, 0; i < len(inst.conns); i++ {
		n := len(inst.conns[i].refs)
		inst.conns[i].refs = own[off : off+n : off+n]
		off += n
	}
	p.conns, p.refs = conns[:0], refs[:0]
	m.insts = append(m.insts, inst)
	return nil
}

// parseRefList parses a reference: ident, ident[i], ident[m:l], constant, or
// a concatenation {r, r, ...}. It appends the single-bit references to out,
// MSB-first, and returns the extended slice.
func (p *parser) parseRefList(m *srcModule, out []srcRef) ([]srcRef, error) {
	t := p.peek()
	switch {
	case t.kind == tPunct && t.text == "{":
		p.next()
		for {
			var err error
			out, err = p.parseRefList(m, out)
			if err != nil {
				return nil, err
			}
			sep := p.next()
			if sep.kind == tPunct && sep.text == "}" {
				return out, nil
			}
			if sep.kind != tPunct || sep.text != "," {
				return nil, fmt.Errorf("verilog: line %d: bad concatenation", sep.line)
			}
		}
	case t.kind == tNumber:
		p.next()
		return appendConst(out, t)
	case t.kind == tIdent:
		p.next()
		name := identName(t)
		if p.peek().kind == tPunct && p.peek().text == "[" {
			r, err := p.parseRangeOrIndex()
			if err != nil {
				return nil, err
			}
			return r.appendBits(out, name), nil
		}
		// Bare name: expand if it is a declared bus.
		if r, ok := m.declWidth(name); ok {
			return r.appendBits(out, name), nil
		}
		return append(out, srcRef{name: name, cval: -1}), nil
	}
	return nil, fmt.Errorf("verilog: line %d: expected net reference, got %q", t.line, t.text)
}

// parseRangeOrIndex parses [i] or [m:l] after an identifier.
func (p *parser) parseRangeOrIndex() (srcRange, error) {
	if err := p.expectPunct("["); err != nil {
		return srcRange{}, err
	}
	a, err := p.parseInt()
	if err != nil {
		return srcRange{}, err
	}
	t := p.next()
	if t.kind == tPunct && t.text == "]" {
		return srcRange{a, a}, nil
	}
	if t.kind != tPunct || t.text != ":" {
		return srcRange{}, fmt.Errorf("verilog: line %d: bad bit select", t.line)
	}
	b, err := p.parseInt()
	if err != nil {
		return srcRange{}, err
	}
	if err := p.expectPunct("]"); err != nil {
		return srcRange{}, err
	}
	return srcRange{a, b}, nil
}

// appendConst expands a 1'b0-style literal to constant bit refs, MSB-first,
// appended to out.
func appendConst(out []srcRef, t token) ([]srcRef, error) {
	s := t.text
	q := strings.IndexByte(s, '\'')
	if q < 0 {
		return nil, fmt.Errorf("verilog: line %d: bare number %q not supported as net", t.line, s)
	}
	width, err := strconv.Atoi(s[:q])
	if err != nil || width <= 0 || width > 64 {
		return nil, fmt.Errorf("verilog: line %d: bad constant width in %q", t.line, s)
	}
	if q+1 >= len(s) {
		return nil, fmt.Errorf("verilog: line %d: bad constant %q", t.line, s)
	}
	base := s[q+1]
	digits := s[q+2:]
	var val uint64
	switch base {
	case 'b', 'B':
		v, err := strconv.ParseUint(digits, 2, 64)
		if err != nil {
			return nil, fmt.Errorf("verilog: line %d: bad binary constant %q", t.line, s)
		}
		val = v
	case 'h', 'H':
		v, err := strconv.ParseUint(digits, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("verilog: line %d: bad hex constant %q", t.line, s)
		}
		val = v
	case 'd', 'D':
		v, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("verilog: line %d: bad decimal constant %q", t.line, s)
		}
		val = v
	default:
		return nil, fmt.Errorf("verilog: line %d: unsupported constant base %q", t.line, s)
	}
	for i := 0; i < width; i++ {
		bit := int8(0)
		if val>>uint(width-1-i)&1 == 1 {
			bit = 1
		}
		out = append(out, srcRef{cval: bit})
	}
	return out, nil
}
