// Package yamlite implements the subset of YAML that RAI build
// specifications use: block mappings, block sequences, plain and quoted
// scalars, comments, literal (|) and folded (>) blocks, and multi-line
// plain-scalar continuation (the paper's Listing 1 splits one command
// across two lines). Parse returns a Node tree, which internal/build
// walks by the rai-build.yml schema; Quote writes a scalar Parse reads
// back unchanged.
//
// The package deliberately omits anchors, aliases, tags, flow collections
// spanning documents, and multi-document streams: rai-build.yml files do
// not use them, and rejecting them loudly is safer for a grading pipeline
// than guessing.
package yamlite

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates node types in a parsed document.
type Kind int

// Node kinds.
const (
	KindScalar Kind = iota
	KindMap
	KindSeq
)

func (k Kind) String() string {
	switch k {
	case KindScalar:
		return "scalar"
	case KindMap:
		return "map"
	case KindSeq:
		return "seq"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a parsed YAML node.
type Node struct {
	Kind Kind
	// Value holds the scalar text for KindScalar nodes. It is the
	// post-unquoting value; Quoted records whether quoting was used, so
	// a caller can tell a plain null or number from a string. Parse
	// types no scalar itself.
	Value  string
	Quoted bool
	// Keys and Values are parallel for KindMap (preserving order);
	// Items holds sequence elements for KindSeq.
	Keys   []string
	Values []*Node
	Items  []*Node
	// Line is the 1-based source line the node started on.
	Line int
}

// line is a logical source line.
type line struct {
	indent int    // count of leading spaces
	text   string // content without indentation, comments stripped
	num    int    // 1-based line number
	raw    string // content without indentation, comments kept (for block scalars)
}

// Parse parses a single YAML document.
func Parse(data []byte) (*Node, error) {
	src := strings.ReplaceAll(string(data), "\r\n", "\n")
	var lines []line
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		if strings.Contains(raw, "\t") {
			// YAML forbids tabs in indentation; reject anywhere in
			// leading whitespace for clarity.
			trimmed := strings.TrimLeft(raw, " ")
			if strings.HasPrefix(trimmed, "\t") {
				return nil, fmt.Errorf("yamlite: line %d: tab character in indentation", num)
			}
		}
		indent := len(raw) - len(strings.TrimLeft(raw, " "))
		body := raw[indent:]
		stripped := stripComment(body)
		if strings.TrimSpace(stripped) == "" && strings.TrimSpace(body) == "" {
			continue // blank line
		}
		if strings.TrimSpace(stripped) == "" {
			// comment-only line
			continue
		}
		if strings.HasPrefix(strings.TrimSpace(stripped), "---") && indent == 0 {
			rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(stripped), "---"))
			if rest == "" {
				continue // document start marker
			}
		}
		lines = append(lines, line{indent: indent, text: strings.TrimRight(stripped, " "), num: num, raw: body})
	}
	if len(lines) == 0 {
		return &Node{Kind: KindMap}, nil
	}
	p := &parser{lines: lines}
	n, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("yamlite: line %d: unexpected content %q (bad indentation?)", l.num, l.text)
	}
	return n, nil
}

// stripComment removes a trailing comment, honoring quotes. A '#' begins a
// comment only when preceded by whitespace or at line start (YAML rule).
func stripComment(s string) string {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inD:
			if c == '\\' {
				i++
			} else if c == '"' {
				inD = false
			}
		case inS:
			if c == '\'' {
				// '' is an escaped quote
				if i+1 < len(s) && s[i+1] == '\'' {
					i++
				} else {
					inS = false
				}
			}
		case c == '"':
			inD = true
		case c == '\'':
			inS = true
		case c == '#':
			if i == 0 || s[i-1] == ' ' {
				return s[:i]
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) peek() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

// parseBlock parses a block node whose first line is at exactly indent.
func (p *parser) parseBlock(indent int) (*Node, error) {
	l, ok := p.peek()
	if !ok {
		return &Node{Kind: KindScalar}, nil
	}
	if l.indent != indent {
		return nil, fmt.Errorf("yamlite: line %d: expected indentation %d, got %d", l.num, indent, l.indent)
	}
	if strings.HasPrefix(l.text, "- ") || l.text == "-" {
		return p.parseSeq(indent)
	}
	if key, _, ok := splitKey(l.text); ok && key != "" {
		return p.parseMap(indent)
	}
	p.pos++
	return p.finishPlainScalar(l.text, indent, l.num)
}

// parseSeq parses sequence entries at the given indent.
func (p *parser) parseSeq(indent int) (*Node, error) {
	n := &Node{Kind: KindSeq, Line: p.lines[p.pos].num}
	for {
		l, ok := p.peek()
		if !ok || l.indent != indent || !(strings.HasPrefix(l.text, "- ") || l.text == "-") {
			if ok && l.indent > indent {
				return nil, fmt.Errorf("yamlite: line %d: unexpected indentation inside sequence", l.num)
			}
			return n, nil
		}
		p.pos++
		rest := strings.TrimPrefix(l.text, "-")
		rest = strings.TrimPrefix(rest, " ")
		if rest == "" {
			// Nested block on the following lines.
			nl, ok := p.peek()
			if !ok || nl.indent <= indent {
				n.Items = append(n.Items, &Node{Kind: KindScalar, Line: l.num})
				continue
			}
			child, err := p.parseBlock(nl.indent)
			if err != nil {
				return nil, err
			}
			n.Items = append(n.Items, child)
			continue
		}
		// Inline content after the dash. The content column is where a
		// nested mapping would be anchored ("- key: value" style).
		col := indent + (len(l.text) - len(rest))
		if key, val, ok := splitKey(rest); ok && key != "" {
			item, err := p.parseInlineMapEntry(col, key, val, l.num)
			if err != nil {
				return nil, err
			}
			n.Items = append(n.Items, item)
			continue
		}
		item, err := p.parseValue(rest, indent, l.num)
		if err != nil {
			return nil, err
		}
		n.Items = append(n.Items, item)
	}
}

// parseInlineMapEntry handles "- key: value" sequence items: the first
// entry is inline, subsequent entries continue at column col.
func (p *parser) parseInlineMapEntry(col int, key, val string, num int) (*Node, error) {
	m := &Node{Kind: KindMap, Line: num}
	v, err := p.parseValue(val, col, num)
	if err != nil {
		return nil, err
	}
	k, err := unquoteScalar(key, num)
	if err != nil {
		return nil, err
	}
	m.Keys = append(m.Keys, k.Value)
	m.Values = append(m.Values, v)
	seen := map[string]bool{k.Value: true}
	for {
		l, ok := p.peek()
		if !ok || l.indent != col {
			return m, nil
		}
		k2, v2raw, ok2 := splitKey(l.text)
		if !ok2 || k2 == "" {
			return m, nil
		}
		p.pos++
		vn, err := p.parseValue(v2raw, col, l.num)
		if err != nil {
			return nil, err
		}
		kn, err := unquoteScalar(k2, l.num)
		if err != nil {
			return nil, err
		}
		if seen[kn.Value] {
			return nil, fmt.Errorf("yamlite: line %d: duplicate key %q", l.num, kn.Value)
		}
		seen[kn.Value] = true
		m.Keys = append(m.Keys, kn.Value)
		m.Values = append(m.Values, vn)
	}
}

// parseMap parses mapping entries at the given indent.
func (p *parser) parseMap(indent int) (*Node, error) {
	n := &Node{Kind: KindMap, Line: p.lines[p.pos].num}
	seen := map[string]bool{}
	for {
		l, ok := p.peek()
		if !ok || l.indent != indent {
			if ok && l.indent > indent {
				return nil, fmt.Errorf("yamlite: line %d: unexpected indentation inside mapping", l.num)
			}
			return n, nil
		}
		key, val, ok2 := splitKey(l.text)
		if !ok2 || key == "" {
			return n, nil
		}
		p.pos++
		kn, err := unquoteScalar(key, l.num)
		if err != nil {
			return nil, err
		}
		if seen[kn.Value] {
			return nil, fmt.Errorf("yamlite: line %d: duplicate key %q", l.num, kn.Value)
		}
		seen[kn.Value] = true
		vn, err := p.parseValue(val, indent, l.num)
		if err != nil {
			return nil, err
		}
		n.Keys = append(n.Keys, kn.Value)
		n.Values = append(n.Values, vn)
	}
}

// parseValue parses the value part of "key: <val>" where the key line sits
// at indent. An empty val means the value is a nested block (or null).
func (p *parser) parseValue(val string, indent, num int) (*Node, error) {
	val = strings.TrimSpace(val)
	switch {
	case val == "":
		nl, ok := p.peek()
		if !ok || nl.indent <= indent {
			return &Node{Kind: KindScalar, Line: num}, nil // null
		}
		return p.parseBlock(nl.indent)
	case val == "|" || val == ">" || strings.HasPrefix(val, "|") || strings.HasPrefix(val, ">"):
		if isBlockScalarHeader(val) {
			return p.parseBlockScalar(val, indent, num)
		}
		return p.finishPlainScalar(val, indent, num)
	default:
		return p.finishPlainScalar(val, indent, num)
	}
}

func isBlockScalarHeader(s string) bool {
	if s == "" || (s[0] != '|' && s[0] != '>') {
		return false
	}
	rest := s[1:]
	rest = strings.TrimPrefix(rest, "-")
	rest = strings.TrimPrefix(rest, "+")
	return strings.TrimSpace(rest) == ""
}

// parseBlockScalar handles | (literal) and > (folded) block scalars.
func (p *parser) parseBlockScalar(header string, indent, num int) (*Node, error) {
	style := header[0]
	chomp := byte(0)
	if len(header) > 1 {
		switch header[1] {
		case '-', '+':
			chomp = header[1]
		}
	}
	var body []string
	blockIndent := -1
	for {
		l, ok := p.peek()
		if !ok || l.indent <= indent {
			break
		}
		if blockIndent == -1 {
			blockIndent = l.indent
		}
		if l.indent < blockIndent {
			break
		}
		p.pos++
		body = append(body, strings.Repeat(" ", l.indent-blockIndent)+l.raw)
	}
	var text string
	if style == '|' {
		text = strings.Join(body, "\n")
	} else {
		text = strings.Join(body, " ")
	}
	switch chomp {
	case '-':
		// strip: no trailing newline
	case '+':
		text += "\n"
	default:
		if len(body) > 0 {
			text += "\n"
		}
	}
	return &Node{Kind: KindScalar, Value: text, Quoted: true, Line: num}, nil
}

// finishPlainScalar parses a scalar that begins with first (already
// dedented) and may continue on following lines indented deeper than
// indent — the YAML plain-scalar folding used by the paper's Listing 1 to
// split a long command across lines. Continuation lines must not look like
// mapping keys or sequence entries.
func (p *parser) finishPlainScalar(first string, indent, num int) (*Node, error) {
	n, err := unquoteScalar(first, num)
	if err != nil {
		return nil, err
	}
	n.Line = num
	if n.Quoted {
		return n, nil
	}
	parts := []string{n.Value}
	for {
		l, ok := p.peek()
		if !ok || l.indent <= indent {
			break
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			break
		}
		if k, _, ok := splitKey(l.text); ok && k != "" {
			break
		}
		p.pos++
		parts = append(parts, strings.TrimSpace(l.text))
	}
	n.Value = strings.Join(parts, " ")
	return n, nil
}

// splitKey splits "key: value" honoring quotes. Returns ok=false when the
// line is not a mapping entry. A ':' separates key and value only when
// followed by a space or end of line (YAML rule), so commands such as
// "webgpu/rai:root" are not mistaken for mappings.
func splitKey(s string) (key, val string, ok bool) {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inD:
			if c == '\\' {
				i++
			} else if c == '"' {
				inD = false
			}
		case inS:
			if c == '\'' {
				if i+1 < len(s) && s[i+1] == '\'' {
					i++
				} else {
					inS = false
				}
			}
		case c == '"':
			inD = true
		case c == '\'':
			inS = true
		case c == ':':
			if i+1 == len(s) {
				return strings.TrimSpace(s[:i]), "", true
			}
			if s[i+1] == ' ' {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
			}
		}
	}
	return "", "", false
}

// unquoteScalar interprets a single scalar token, handling single and
// double quoting. It rejects unsupported YAML (anchors, aliases, tags,
// flow collections) loudly.
func unquoteScalar(s string, num int) (*Node, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return &Node{Kind: KindScalar, Line: num}, nil
	}
	switch s[0] {
	case '&', '*':
		return nil, fmt.Errorf("yamlite: line %d: anchors/aliases are not supported", num)
	case '!':
		return nil, fmt.Errorf("yamlite: line %d: tags are not supported", num)
	case '{', '[':
		return nil, fmt.Errorf("yamlite: line %d: flow collections are not supported", num)
	case '"':
		if len(s) < 2 || s[len(s)-1] != '"' {
			return nil, fmt.Errorf("yamlite: line %d: unterminated double-quoted scalar", num)
		}
		v, err := unescapeDouble(s[1:len(s)-1], num)
		if err != nil {
			return nil, err
		}
		return &Node{Kind: KindScalar, Value: v, Quoted: true, Line: num}, nil
	case '\'':
		if len(s) < 2 || s[len(s)-1] != '\'' {
			return nil, fmt.Errorf("yamlite: line %d: unterminated single-quoted scalar", num)
		}
		return &Node{Kind: KindScalar, Value: strings.ReplaceAll(s[1:len(s)-1], "''", "'"), Quoted: true, Line: num}, nil
	}
	return &Node{Kind: KindScalar, Value: s, Line: num}, nil
}

func unescapeDouble(s string, num int) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("yamlite: line %d: dangling escape in double-quoted scalar", num)
		}
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '0':
			b.WriteByte(0)
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case '/':
			b.WriteByte('/')
		default:
			// The other escapes strconv.Quote writes, with its meaning
			// (\xXX is one byte), so whatever Quote writes reads back.
			r, multibyte, tail, err := strconv.UnquoteChar(s[i-1:], '"')
			if err != nil {
				return "", fmt.Errorf("yamlite: line %d: unsupported escape \\%c", num, s[i])
			}
			if multibyte {
				b.WriteRune(r)
			} else {
				b.WriteByte(byte(r))
			}
			i = len(s) - len(tail) - 1
		}
	}
	return b.String(), nil
}

// Quote returns s as a scalar token Parse reads back as s: plain when a
// plain scalar would keep its meaning, else strconv.Quote's
// double-quoted form, whose every escape unescapeDouble knows.
func Quote(s string) string {
	if s == "" {
		return `""`
	}
	plainSafe := true
	switch s {
	case "null", "Null", "NULL", "~", "true", "True", "TRUE", "false", "False", "FALSE":
		plainSafe = false
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		plainSafe = false
	}
	if plainSafe {
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch {
			case c == ':' && (i+1 == len(s) || s[i+1] == ' '):
				plainSafe = false
			case c == '#' && i > 0 && s[i-1] == ' ':
				plainSafe = false
			case c == '\n' || c == '\t':
				plainSafe = false
			case i == 0 && (c == '-' || c == '?') && len(s) > 1 && s[1] == ' ':
				plainSafe = false
			case i == 0 && strings.ContainsRune("#&*!{}[]\"'|>%@`", rune(c)):
				plainSafe = false
			}
			if !plainSafe {
				break
			}
		}
	}
	if plainSafe && strings.TrimSpace(s) == s {
		return s
	}
	return strconv.Quote(s)
}
