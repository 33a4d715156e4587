// Package verilog reads and writes gate-level structural Verilog, the
// exchange format between synthesis, DFT, drdesync and the backend (§3.2.1,
// §3.2.7). The supported subset is what post-synthesis netlists contain:
// module/endmodule, input/output/inout and wire declarations (scalar and
// bused), library-cell and submodule instantiations with named or positional
// connections, simple alias assigns, escaped identifiers, bit-selects and
// 1'b0/1'b1 constants. Buses are bit-blasted on import.
package verilog

import (
	"fmt"
	"strings"
)

type tokKind uint8

const (
	tIdent tokKind = iota
	tNumber
	tPunct
	tEOF
)

type token struct {
	kind tokKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

// next scans and returns the next token. The parser pulls tokens one at a
// time: netlist text averages under three bytes per token, so materializing
// the whole stream would cost more memory than the source itself — at
// million-gate sizes that dominated import time.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			nl := strings.IndexByte(l.src[l.pos:], '\n')
			if nl < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += nl
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return token{}, fmt.Errorf("verilog: line %d: unterminated comment", l.line)
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			goto scan
		}
	}
	return token{kind: tEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	switch {
	case c == '\\':
		// Escaped identifier: backslash up to (exclusive) next whitespace,
		// sliced from the source with its backslash.
		start := l.pos + 1
		end := start
		for end < len(l.src) && !isSpace(l.src[end]) {
			end++
		}
		if end == start {
			return token{}, fmt.Errorf("verilog: line %d: empty escaped identifier", l.line)
		}
		l.pos = end
		return token{tIdent, l.src[start-1 : end], l.line}, nil
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{tIdent, l.src[start:l.pos], l.line}, nil
	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) && (isIdentPart(l.src[l.pos]) || l.src[l.pos] == '\'') {
			l.pos++
		}
		return token{tNumber, l.src[start:l.pos], l.line}, nil
	case strings.IndexByte("()[]{},;:.=", c) >= 0:
		l.pos++
		return token{tPunct, l.src[l.pos-1 : l.pos], l.line}, nil
	}
	return token{}, fmt.Errorf("verilog: line %d: unexpected character %q", l.line, c)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }
