package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseError describes a syntax error in an N-Triples document.
type ParseError struct {
	Line int    // 1-based line number
	Col  int    // 1-based byte column
	Msg  string // human-readable description
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Reader is a streaming N-Triples parser. It accepts the line-oriented
// N-Triples syntax: one triple per line, '#' comments, blank lines, and the
// standard term syntaxes (IRIs in angle brackets, quoted literals with
// optional ^^<datatype> or @lang, and _:label blank nodes).
type Reader struct {
	br   *bufio.Reader
	line int
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Read returns the next triple, or io.EOF when the input is exhausted.
func (r *Reader) Read() (Triple, error) {
	for {
		r.line++
		line, err := r.br.ReadString('\n')
		if err != nil && err != io.EOF {
			return Triple{}, err
		}
		atEOF := err == io.EOF
		trimmed := strings.TrimSpace(line)
		if trimmed != "" && !strings.HasPrefix(trimmed, "#") {
			t, perr := parseLine(trimmed, r.line)
			if perr != nil {
				return Triple{}, perr
			}
			return t, nil
		}
		if atEOF {
			return Triple{}, io.EOF
		}
	}
}

// ReadAll parses every triple from r. It is a convenience wrapper around
// NewReader for small inputs; large loads should stream with Read.
func ReadAll(r io.Reader) ([]Triple, error) {
	rd := NewReader(r)
	var out []Triple
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// ParseTriple parses a single N-Triples statement (one line).
func ParseTriple(line string) (Triple, error) {
	return parseLine(strings.TrimSpace(line), 1)
}

type lineParser struct {
	s    string
	pos  int
	line int
}

func (p *lineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) skipWS() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *lineParser) peek() byte {
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func parseLine(line string, lineNo int) (Triple, error) {
	p := &lineParser{s: line, line: lineNo}
	s, err := p.parseTerm(true)
	if err != nil {
		return Triple{}, err
	}
	p.skipWS()
	pr, err := p.parseTerm(false)
	if err != nil {
		return Triple{}, err
	}
	if pr.Kind != IRI {
		return Triple{}, p.errf("predicate must be an IRI, got %s", pr.Kind)
	}
	p.skipWS()
	o, err := p.parseTerm(true)
	if err != nil {
		return Triple{}, err
	}
	p.skipWS()
	if p.peek() != '.' {
		return Triple{}, p.errf("expected '.' terminator, got %q", rest(p))
	}
	p.pos++
	p.skipWS()
	if p.pos != len(p.s) {
		return Triple{}, p.errf("trailing content after '.': %q", rest(p))
	}
	if s.Kind == Literal {
		return Triple{}, p.errf("subject must not be a literal")
	}
	return Triple{S: s, P: pr, O: o}, nil
}

func rest(p *lineParser) string {
	r := p.s[p.pos:]
	if len(r) > 20 {
		r = r[:20] + "..."
	}
	return r
}

func (p *lineParser) parseTerm(allowAll bool) (Term, error) {
	p.skipWS()
	switch p.peek() {
	case '<':
		return p.parseIRI()
	case '_':
		if !allowAll {
			return Term{}, p.errf("blank node not allowed here")
		}
		return p.parseBlank()
	case '"':
		if !allowAll {
			return Term{}, p.errf("literal not allowed here")
		}
		return p.parseLiteral()
	case 0:
		return Term{}, p.errf("unexpected end of statement")
	default:
		return Term{}, p.errf("unexpected character %q", p.s[p.pos])
	}
}

func (p *lineParser) parseIRI() (Term, error) {
	if p.peek() != '<' {
		return Term{}, p.errf("expected '<' to open an IRI, got %q", rest(p))
	}
	end := strings.IndexByte(p.s[p.pos:], '>')
	if end < 0 {
		return Term{}, p.errf("unterminated IRI")
	}
	iri := p.s[p.pos+1 : p.pos+end]
	if iri == "" {
		return Term{}, p.errf("empty IRI")
	}
	if !utf8.ValidString(iri) {
		return Term{}, p.errf("IRI contains invalid UTF-8")
	}
	p.pos += end + 1
	return NewIRI(iri), nil
}

func (p *lineParser) parseBlank() (Term, error) {
	if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
		return Term{}, p.errf("malformed blank node label")
	}
	start := p.pos + 2
	i := start
	for i < len(p.s) && !isTermDelim(p.s[i]) {
		i++
	}
	if i == start {
		return Term{}, p.errf("empty blank node label")
	}
	label := p.s[start:i]
	p.pos = i
	return NewBlank(label), nil
}

func isTermDelim(c byte) bool { return c == ' ' || c == '\t' }

func (p *lineParser) parseLiteral() (Term, error) {
	// p.s[p.pos] == '"'
	var b strings.Builder
	i := p.pos + 1
	closed := false
	for i < len(p.s) {
		c := p.s[i]
		if c == '\\' {
			if i+1 >= len(p.s) {
				return Term{}, p.errf("dangling escape in literal")
			}
			esc, n, err := decodeEscape(p.s[i:])
			if err != nil {
				p.pos = i
				return Term{}, p.errf("%v", err)
			}
			b.WriteString(esc)
			i += n
			continue
		}
		if c == '"' {
			closed = true
			i++
			break
		}
		b.WriteByte(c)
		i++
	}
	if !closed {
		return Term{}, p.errf("unterminated literal")
	}
	if !utf8.ValidString(b.String()) {
		return Term{}, p.errf("literal contains invalid UTF-8")
	}
	t := NewLiteral(b.String())
	// Optional suffix: @lang or ^^<datatype>.
	if i < len(p.s) && p.s[i] == '@' {
		start := i + 1
		j := start
		for j < len(p.s) && !isTermDelim(p.s[j]) {
			j++
		}
		if j == start {
			p.pos = i
			return Term{}, p.errf("empty language tag")
		}
		t.Lang = p.s[start:j]
		i = j
	} else if i+1 < len(p.s) && p.s[i] == '^' && p.s[i+1] == '^' {
		p.pos = i + 2
		dt, err := p.parseIRI()
		if err != nil {
			return Term{}, err
		}
		t.Datatype = dt.Value
		i = p.pos
	}
	p.pos = i
	return t, nil
}

// decodeEscape decodes one backslash escape starting at s[0]=='\\' and
// returns the decoded text plus the number of input bytes consumed.
func decodeEscape(s string) (string, int, error) {
	if len(s) < 2 {
		return "", 0, fmt.Errorf("dangling escape")
	}
	switch s[1] {
	case 't':
		return "\t", 2, nil
	case 'n':
		return "\n", 2, nil
	case 'r':
		return "\r", 2, nil
	case '"':
		return `"`, 2, nil
	case '\\':
		return `\`, 2, nil
	case 'u':
		if len(s) < 6 {
			return "", 0, fmt.Errorf("truncated \\u escape")
		}
		r, err := hexRune(s[2:6])
		if err != nil {
			return "", 0, err
		}
		return string(r), 6, nil
	case 'U':
		if len(s) < 10 {
			return "", 0, fmt.Errorf("truncated \\U escape")
		}
		r, err := hexRune(s[2:10])
		if err != nil {
			return "", 0, err
		}
		return string(r), 10, nil
	default:
		return "", 0, fmt.Errorf("unknown escape \\%c", s[1])
	}
}

func hexRune(hex string) (rune, error) {
	var r rune
	for i := 0; i < len(hex); i++ {
		c := hex[i]
		var v rune
		switch {
		case c >= '0' && c <= '9':
			v = rune(c - '0')
		case c >= 'a' && c <= 'f':
			v = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("invalid hex digit %q", c)
		}
		r = r<<4 | v
	}
	return r, nil
}

// Writer emits triples in N-Triples syntax.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter returns a Writer emitting to w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write emits one triple as a single N-Triples line.
func (w *Writer) Write(t Triple) error {
	_, err := w.bw.Write(append(t.AppendNT(w.bw.AvailableBuffer()), '\n'))
	return err
}

// Flush flushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// WriteAll writes every triple to w in N-Triples syntax.
func WriteAll(w io.Writer, triples []Triple) error {
	nw := NewWriter(w)
	for _, t := range triples {
		if err := nw.Write(t); err != nil {
			return err
		}
	}
	return nw.Flush()
}
