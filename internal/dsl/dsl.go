// Package dsl implements the AFEX fault space description language of
// Fig. 3 in the paper, plus the flat fault-scenario format of Fig. 5.
//
// Grammar (EBNF, verbatim from the paper):
//
//	syntax    = {space};
//	space     = (subtype | parameter)+ ";";
//	subtype   = identifier;
//	parameter = identifier ":"
//	            ( "{" identifier ("," identifier)+ "}" |
//	              "[" number "," number "]" |
//	              "<" number "," number ">" );
//	identifier = letter (letter | digit | "_")*;
//	number     = (digit)+;
//
// Fault spaces are described as a Cartesian product of sets, intervals,
// and unions of subspaces separated by ";". "[lo,hi]" intervals are
// sampled for a single number; "<lo,hi>" intervals are sampled for entire
// sub-intervals.
package dsl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"afex/internal/faultspace"
)

// IntervalKind distinguishes the two interval syntaxes of the language.
type IntervalKind int

const (
	// Point intervals ("[lo,hi]") are sampled for a single number.
	Point IntervalKind = iota
	// Range intervals ("<lo,hi>") are sampled for whole sub-intervals.
	Range
)

// Parameter is one axis declaration inside a space description.
type Parameter struct {
	Name string
	// Set holds the members of a "{a,b,c}" set parameter; nil for
	// intervals.
	Set []string
	// Lo and Hi bound an interval parameter (inclusive).
	Lo, Hi int
	// Kind distinguishes "[ ]" from "< >" intervals; meaningless for sets.
	Kind IntervalKind
}

// IsSet reports whether the parameter is a set parameter.
func (p Parameter) IsSet() bool { return p.Set != nil }

// SpaceDesc is one ";"-terminated subspace description.
type SpaceDesc struct {
	// Subtype is the optional bare identifier labelling the subspace.
	Subtype string
	// Params are the axis declarations in source order.
	Params []Parameter
}

// Description is a parsed fault space description: a union of subspaces.
type Description struct {
	Spaces []SpaceDesc
}

// ParseError describes a syntax error with its byte offset in the input.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("dsl: parse error at offset %d: %s", e.Offset, e.Msg)
}

type lexer struct {
	in  string
	pos int
}

func (l *lexer) errf(format string, args ...any) *ParseError {
	return &ParseError{Offset: l.pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// Line comments are a small practical extension; the paper's
		// grammar is whitespace-insensitive and comment-free, but real
		// descriptor files want them.
		if c == '#' {
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func (l *lexer) eof() bool {
	l.skipSpace()
	return l.pos >= len(l.in)
}

func (l *lexer) peek() byte {
	l.skipSpace()
	if l.pos >= len(l.in) {
		return 0
	}
	return l.in[l.pos]
}

func (l *lexer) expect(c byte) error {
	l.skipSpace()
	if l.pos >= len(l.in) || l.in[l.pos] != c {
		return l.errf("expected %q", string(c))
	}
	l.pos++
	return nil
}

func isLetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) identifier() (string, error) {
	l.skipSpace()
	start := l.pos
	// The paper's grammar starts identifiers with a letter; a leading
	// underscore is accepted as a practical extension because real libc
	// symbol names need it (__xstat64, __IO_putc). So is a "." after
	// the first character, because versioned target names carry one
	// (the subtype mongo_v2.0_libcalls).
	if l.pos >= len(l.in) || !(isLetter(l.in[l.pos]) || l.in[l.pos] == '_') {
		return "", l.errf("expected identifier")
	}
	l.pos++
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if isLetter(c) || isDigit(c) || c == '_' || c == '.' {
			l.pos++
			continue
		}
		break
	}
	return l.in[start:l.pos], nil
}

func (l *lexer) number() (int, error) {
	l.skipSpace()
	start := l.pos
	for l.pos < len(l.in) && isDigit(l.in[l.pos]) {
		l.pos++
	}
	if l.pos == start {
		return 0, l.errf("expected number")
	}
	n, err := strconv.Atoi(l.in[start:l.pos])
	if err != nil {
		return 0, l.errf("bad number %q: %v", l.in[start:l.pos], err)
	}
	return n, nil
}

// Parse parses a fault space description. An empty (or comment-only)
// input yields an empty Description and no error.
func Parse(input string) (*Description, error) {
	l := &lexer{in: input}
	desc := &Description{}
	for !l.eof() {
		sp, err := parseSpace(l)
		if err != nil {
			return nil, err
		}
		desc.Spaces = append(desc.Spaces, sp)
	}
	return desc, nil
}

func parseSpace(l *lexer) (SpaceDesc, error) {
	var sp SpaceDesc
	seen := map[string]bool{}
	for {
		if l.peek() == ';' {
			l.pos++
			if sp.Subtype == "" && len(sp.Params) == 0 {
				return sp, l.errf("empty space before %q", ";")
			}
			return sp, nil
		}
		id, err := l.identifier()
		if err != nil {
			return sp, err
		}
		if l.peek() != ':' {
			// A bare identifier is a subtype label.
			if sp.Subtype != "" {
				return sp, l.errf("duplicate subtype %q (already %q)", id, sp.Subtype)
			}
			sp.Subtype = id
			continue
		}
		l.pos++ // consume ':'
		if seen[id] {
			return sp, l.errf("duplicate parameter %q", id)
		}
		seen[id] = true
		p, err := parseValue(l, id)
		if err != nil {
			return sp, err
		}
		sp.Params = append(sp.Params, p)
	}
}

func parseValue(l *lexer, name string) (Parameter, error) {
	p := Parameter{Name: name}
	switch l.peek() {
	case '{':
		l.pos++
		for {
			id, err := l.identifier()
			if err != nil {
				// Permit (possibly negative) numeric members inside sets;
				// the paper's Fig. 4 includes "retval : { 0 }" and
				// "retVal : { -1 }".
				neg := false
				l.skipSpace()
				if l.pos < len(l.in) && l.in[l.pos] == '-' {
					neg = true
					l.pos++
				}
				n, nerr := l.number()
				if nerr != nil {
					return p, err
				}
				if neg {
					n = -n
				}
				id = strconv.Itoa(n)
			}
			p.Set = append(p.Set, id)
			c := l.peek()
			if c == ',' {
				l.pos++
				continue
			}
			if c == '}' {
				l.pos++
				if len(p.Set) == 0 {
					return p, l.errf("empty set for %q", name)
				}
				return p, nil
			}
			return p, l.errf("expected ',' or '}' in set for %q", name)
		}
	case '[', '<':
		open := l.in[l.pos]
		l.pos++
		lo, err := l.number()
		if err != nil {
			return p, err
		}
		if err := l.expect(','); err != nil {
			return p, err
		}
		hi, err := l.number()
		if err != nil {
			return p, err
		}
		var close byte = ']'
		p.Kind = Point
		if open == '<' {
			close = '>'
			p.Kind = Range
		}
		if err := l.expect(close); err != nil {
			return p, err
		}
		if hi < lo {
			return p, l.errf("interval for %q has hi < lo (%d < %d)", name, hi, lo)
		}
		p.Lo, p.Hi = lo, hi
		return p, nil
	default:
		return p, l.errf("expected '{', '[' or '<' after %q:", name)
	}
}

// Build converts the parsed description into a faultspace.Union with one
// Space per subspace. Set parameters become categorical axes in source
// order; interval parameters become integer axes. Range ("< >") intervals
// also become integer axes at this level — sub-interval sampling is a
// selection-time concern, recorded on the description for explorers that
// support it.
func (d *Description) Build() *faultspace.Union {
	spaces := make([]*faultspace.Space, 0, len(d.Spaces))
	for i, sd := range d.Spaces {
		name := sd.Subtype
		if name == "" {
			name = fmt.Sprintf("space%d", i)
		}
		axes := make([]faultspace.Axis, 0, len(sd.Params))
		for _, p := range sd.Params {
			if p.IsSet() {
				axes = append(axes, faultspace.SetAxis(p.Name, p.Set...))
			} else {
				axes = append(axes, faultspace.IntAxis(p.Name, p.Lo, p.Hi))
			}
		}
		spaces = append(spaces, faultspace.New(name, axes...))
	}
	return faultspace.NewUnion(spaces...)
}

// String renders the description back in the source language, normalized.
func (d *Description) String() string {
	var b strings.Builder
	for _, sp := range d.Spaces {
		if sp.Subtype != "" {
			fmt.Fprintf(&b, "%s\n", sp.Subtype)
		}
		for _, p := range sp.Params {
			if p.IsSet() {
				fmt.Fprintf(&b, "%s : { %s }\n", p.Name, strings.Join(p.Set, ", "))
			} else if p.Kind == Point {
				fmt.Fprintf(&b, "%s : [ %d , %d ]\n", p.Name, p.Lo, p.Hi)
			} else {
				fmt.Fprintf(&b, "%s : < %d , %d >\n", p.Name, p.Lo, p.Hi)
			}
		}
		b.WriteString(";\n")
	}
	return b.String()
}

// ParseScenario parses a scenario in the flat wire format of Fig. 5
// ("function malloc errno ENOMEM retval 0 callNumber 23") into parallel
// name/value slices, in the order written — what Render writes.
// The input must hold an even number of whitespace-separated tokens and
// name each key once.
func ParseScenario(in string) (names, vals []string, err error) {
	fields := strings.Fields(in)
	if len(fields)%2 != 0 {
		return nil, nil, fmt.Errorf("dsl: scenario %q has odd token count", in)
	}
	names, vals = make([]string, 0, len(fields)/2), make([]string, 0, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		if slices.Contains(names, fields[i]) {
			return nil, nil, fmt.Errorf("dsl: scenario %q repeats key %q", in, fields[i])
		}
		names, vals = append(names, fields[i]), append(vals, fields[i+1])
	}
	return names, vals, nil
}

// AxisNames returns the axis names of subspace sub of u, in axis order —
// the key order of a scenario. Callers on hot paths compute this once
// per subspace and reuse it.
func AxisNames(u *faultspace.Union, sub int) []string {
	sp := u.Spaces[sub]
	names := make([]string, len(sp.Axes))
	for i, a := range sp.Axes {
		names[i] = a.Name()
	}
	return names
}

// Render writes the fault p of union u as its scenario text in the
// Fig. 5 wire format, names being AxisNames of p's subspace, and fills
// vals[:len(names)] with the values, substrings of that text: the text is
// the one allocation.
func Render(u *faultspace.Union, names []string, p faultspace.Point, vals []string) string {
	var stack [256]byte
	var ends [16]int // each value's end; grows past 16 axes
	b, cut := stack[:0], ends[:0]
	for i, a := range u.Spaces[p.Sub].Axes {
		if i > 0 {
			b = append(b, ' ')
		}
		b = faultspace.AppendValue(append(append(b, names[i]...), ' '), a, p.Fault[i])
		cut = append(cut, len(b))
	}
	s, start := string(b), 0
	for i, end := range cut {
		start += len(names[i]) + 1
		vals[i], start = s[start:end], end+1
	}
	return s
}
