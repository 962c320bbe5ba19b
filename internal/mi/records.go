// Package mi implements a GDB/MI-style machine interface over MiniGDB: the
// record grammar (result, async, stream records and the "(gdb)" terminator),
// a printer and parser for it, a command server wrapping internal/dbg (GDB
// plus the paper's custom extensions), a client, and in-process/subprocess
// transports. The MiniGDB tracker (internal/gdbtracker) talks to the server
// exclusively through this protocol, reproducing the architecture of the
// paper's Fig. 4: tracker <-pipe-> GDB-MI <-> extensions <-> inferior.
package mi

import (
	"fmt"
	"strconv"
	"strings"
)

// RecordKind classifies an output record.
type RecordKind int

const (
	// ResultRecord is "token^class,results".
	ResultRecord RecordKind = iota
	// AsyncRecord is "*class,results" (exec state changes) or
	// "=class,results" (notifications).
	AsyncRecord
	// NotifyRecord is "=class,results".
	NotifyRecord
	// StreamRecord is '~"text"' (console) or '@"text"' (target output).
	StreamRecord
	// TargetStreamRecord is '@"text"'.
	TargetStreamRecord
	// PromptRecord is the "(gdb)" terminator.
	PromptRecord
)

// Value is an MI value a Result's string is not: a Tuple, a List, or a
// List's c-string item, a StringVal.
type Value interface{ miValue() }

// StringVal is a c-string item of a List.
type StringVal string

// Tuple is "{var=value,...}".
type Tuple []Result

// List is "[value,...]" (or "[var=value,...]"; we normalize to values,
// wrapping var=value items as single-field tuples).
type List []Value

func (StringVal) miValue() {}
func (Tuple) miValue()     {}
func (List) miValue()      {}

// Result is one var=value pair. A string value, c-string or raw, sits in
// Str, which ParseRecord slices from the line it reads; a tuple or list
// sits in Val, which is nil for a string.
type Result struct {
	Var string
	Val Value
	Str string
}

// Get returns the tuple or list held by the named field of a tuple, or
// nil; GetString reads a string field.
func (t Tuple) Get(name string) Value {
	for _, r := range t {
		if r.Var == name {
			return r.Val
		}
	}
	return nil
}

// GetString returns the named field as a string.
func (t Tuple) GetString(name string) string {
	for _, r := range t {
		if r.Var == name {
			return r.Str
		}
	}
	return ""
}

// GetInt returns the named field parsed as an integer.
func (t Tuple) GetInt(name string) (int64, bool) {
	s := t.GetString(name)
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 0, 64)
	return v, err == nil
}

// Record is one MI output record.
type Record struct {
	Kind RecordKind
	// Token is the echoed command token (result records only).
	Token string
	// Class is "done", "error", "stopped", "running", ...
	Class string
	// Results carries the record's payload.
	Results Tuple
	// Stream carries stream-record text.
	Stream string
}

// GetString is a convenience accessor on the record's results.
func (r Record) GetString(name string) string { return r.Results.GetString(name) }

// printer appends MI records to one buffer, the server's reply: each
// value straight from what it stands for, numbers included, with no string
// made per field.
type printer struct {
	b []byte
	// first marks that the next item opens a tuple or list, so no comma
	// goes before it.
	first bool
}

// begin starts a record line of the given kind.
func (p *printer) begin(kind RecordKind, token, class string) {
	switch kind {
	case ResultRecord:
		p.b = append(p.b, token...)
		p.b = append(p.b, '^')
	case AsyncRecord:
		p.b = append(p.b, '*')
	case NotifyRecord:
		p.b = append(p.b, '=')
	}
	p.b = append(p.b, class...)
	p.first = false
}

// line ends a record line.
func (p *printer) line() { p.b = append(p.b, '\n') }

// stream writes a whole stream record line: '~' or '@', then the text as
// a c-string.
func (p *printer) stream(c byte, s string) {
	p.b = append(p.b, c)
	p.b = appendQuoted(p.b, s)
}

// sep writes the comma before an item, unless it opens a tuple or list.
func (p *printer) sep() {
	if p.first {
		p.first = false
		return
	}
	p.b = append(p.b, ',')
}

// name writes an item's "name=".
func (p *printer) name(name string) {
	p.sep()
	p.b = append(p.b, name...)
	p.b = append(p.b, '=')
}

// str writes name="s".
func (p *printer) str(name, s string) {
	p.name(name)
	p.b = appendQuoted(p.b, s)
}

// int writes name="v" for a signed v in decimal.
func (p *printer) int(name string, v int64) {
	p.name(name)
	p.b = append(p.b, '"')
	p.b = strconv.AppendInt(p.b, v, 10)
	p.b = append(p.b, '"')
}

// uint writes name="v" for an unsigned v in decimal.
func (p *printer) uint(name string, v uint64) {
	p.name(name)
	p.b = append(p.b, '"')
	p.b = strconv.AppendUint(p.b, v, 10)
	p.b = append(p.b, '"')
}

// hex writes name="0xv", as %#x prints v.
func (p *printer) hex(name string, v uint64) {
	p.name(name)
	p.b = append(p.b, `"0x`...)
	p.b = strconv.AppendUint(p.b, v, 16)
	p.b = append(p.b, '"')
}

// open writes name={ or name=[ (a bare { or [ for a list item, whose name
// is "").
func (p *printer) open(name string, c byte) {
	if name == "" {
		p.sep()
	} else {
		p.name(name)
	}
	p.b = append(p.b, c)
	p.first = true
}

// close writes the } or ] that ends a tuple or list.
func (p *printer) close(c byte) {
	p.b = append(p.b, c)
	p.first = false
}

// appendRawPrefix appends a raw value's "#<len>:".
func appendRawPrefix(b []byte, n int) []byte {
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, ':')
}

// appendQuoted appends s as a c-string with the escapes MI uses. It works
// byte by byte and copies each run without escapes in one append, so bytes
// that are not UTF-8 cross unchanged.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '\n':
			esc = `\n`
		case '\t':
			esc = `\t`
		case '\r':
			esc = `\r`
		default:
			continue
		}
		b = append(b, s[start:i]...)
		b = append(b, esc...)
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ParseRecord parses one MI output line. Each tuple and list it reads, the
// record's results among them, is one slice of exactly its length, and each
// string value is sliced from line unless it holds an escape.
func ParseRecord(line string) (Record, error) {
	line = strings.TrimRight(line, "\r\n")
	if line == "(gdb)" || line == "(gdb) " {
		return Record{Kind: PromptRecord}, nil
	}
	if line == "" {
		return Record{}, fmt.Errorf("mi: empty record")
	}
	// Leading token digits.
	i := 0
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	token := line[:i]
	rest := line[i:]
	if rest == "" {
		return Record{}, fmt.Errorf("mi: bare token %s", quoteLine(line))
	}
	p := recParser{s: rest, pos: 1}
	switch rest[0] {
	case '^':
		rec, err := p.classAndResults()
		rec.Kind = ResultRecord
		rec.Token = token
		return rec, err
	case '*':
		rec, err := p.classAndResults()
		rec.Kind = AsyncRecord
		return rec, err
	case '=':
		rec, err := p.classAndResults()
		rec.Kind = NotifyRecord
		return rec, err
	case '~', '@', '&':
		s, err := p.cstring()
		if err != nil {
			return Record{}, err
		}
		kind := StreamRecord
		if rest[0] == '@' {
			kind = TargetStreamRecord
		}
		return Record{Kind: kind, Stream: s}, nil
	}
	return Record{}, fmt.Errorf("mi: unrecognized record %s", quoteLine(line))
}

// maxErrQuote bounds how much of a malformed line an error quotes: a reply
// cut inside an -et-inspect State would otherwise carry the whole State
// into its error, and a recovering session keeps that error as its cause.
const maxErrQuote = 128

// quoteLine quotes s for an error: whole when short, else its first
// maxErrQuote bytes and its length.
func quoteLine(s string) string {
	if len(s) <= maxErrQuote {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%q... (%d bytes)", s[:maxErrQuote], len(s))
}

type recParser struct {
	s   string
	pos int
}

func (p *recParser) errf(format string, args ...any) error {
	return fmt.Errorf("mi: %s at byte %d in %s", fmt.Sprintf(format, args...), p.pos, quoteLine(p.s))
}

func (p *recParser) peek() byte {
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func (p *recParser) classAndResults() (Record, error) {
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] != ',' {
		p.pos++
	}
	rec := Record{Class: p.s[start:p.pos]}
	if n := p.count(0); n > 0 {
		rec.Results = make(Tuple, 0, n)
	}
	for p.peek() == ',' {
		p.pos++
		res, err := p.result()
		if err != nil {
			return rec, err
		}
		rec.Results = append(rec.Results, res)
	}
	if p.pos != len(p.s) {
		return rec, p.errf("trailing garbage")
	}
	return rec, nil
}

// count returns how many items the tuple or list whose first item is at
// p.pos holds, or, with close 0, how many ",result" items follow the class
// of a record: the commas at this level, skipping over c-strings, raw
// values and nested tuples and lists. It is exact on a well-formed record;
// on any other it only sizes a slice the parse then fails to fill.
func (p *recParser) count(close byte) int {
	s := p.s
	n, depth := 0, 0
	if close != 0 {
		if p.peek() == close {
			return 0
		}
		n = 1
	}
	for i := p.pos; i < len(s); i++ {
		switch s[i] {
		case '"':
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
		case '#':
			j := i + 1
			for j < len(s) && '0' <= s[j] && s[j] <= '9' {
				j++
			}
			l, err := strconv.Atoi(s[i+1 : j])
			if err != nil || j == len(s) || s[j] != ':' || l > len(s)-j-1 {
				return n
			}
			i = j + l
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

func (p *recParser) result() (Result, error) {
	start := p.pos
	for p.pos < len(p.s) && isNameByte(p.s[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return Result{}, p.errf("missing result name")
	}
	if p.peek() != '=' {
		return Result{}, p.errf("missing '='")
	}
	r := Result{Var: p.s[start:p.pos]}
	p.pos++ // =
	var err error
	switch p.peek() {
	case '"':
		r.Str, err = p.cstring()
	case '#':
		r.Str, err = p.raw()
	default:
		r.Val, err = p.value()
	}
	return r, err
}

// isNameByte reports whether c belongs to MI's variable grammar, the
// names a result may have: [A-Za-z0-9_-].
func isNameByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-'
}

func (p *recParser) value() (Value, error) {
	switch p.peek() {
	case '"':
		s, err := p.cstring()
		return StringVal(s), err
	case '#':
		s, err := p.raw()
		return StringVal(s), err
	case '{':
		p.pos++
		if p.peek() == '}' {
			p.pos++
			return Tuple(nil), nil
		}
		t := make(Tuple, 0, p.count('}'))
		for {
			r, err := p.result()
			if err != nil {
				return nil, err
			}
			t = append(t, r)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if p.peek() != '}' {
			return nil, p.errf("missing '}'")
		}
		p.pos++
		return t, nil
	case '[':
		p.pos++
		if p.peek() == ']' {
			p.pos++
			return List(nil), nil
		}
		l := make(List, 0, p.count(']'))
		for {
			// List items may be values or var=value results.
			if c := p.peek(); c == '"' || c == '#' || c == '{' || c == '[' {
				v, err := p.value()
				if err != nil {
					return nil, err
				}
				l = append(l, v)
			} else {
				r, err := p.result()
				if err != nil {
					return nil, err
				}
				l = append(l, Tuple{r})
			}
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if p.peek() != ']' {
			return nil, p.errf("missing ']'")
		}
		p.pos++
		return l, nil
	}
	return nil, p.errf("bad value start %q", string(p.peek()))
}

// cstring reads a c-string. It works byte by byte and copies each run
// without escapes in one write, so bytes that are not UTF-8 come back
// unchanged; a string without escapes is sliced out of the line.
func (p *recParser) cstring() (string, error) {
	if p.peek() != '"' {
		return "", p.errf("missing '\"'")
	}
	p.pos++
	var b strings.Builder
	start := p.pos
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case '"':
			s := p.s[start:p.pos]
			if b.Len() > 0 { // the string held escapes
				b.WriteString(s)
				s = b.String()
			}
			p.pos++
			return s, nil
		case '\\':
			if p.pos+1 >= len(p.s) {
				return "", p.errf("dangling escape")
			}
			c, ok := unescape(p.s[p.pos+1])
			if !ok {
				return "", p.errf("unknown escape \\%c", p.s[p.pos+1])
			}
			b.WriteString(p.s[start:p.pos])
			b.WriteByte(c)
			p.pos += 2
			start = p.pos
		default:
			p.pos++
		}
	}
	return "", p.errf("unterminated string")
}

// unescape returns the byte a c-string's backslash escape stands for, the
// inverse of appendQuoted.
func unescape(e byte) (byte, bool) {
	switch e {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case '"', '\\':
		return e, true
	}
	return 0, false
}

// raw reads a length-prefixed raw value, "#<len>:<bytes>": exactly len
// bytes after the colon, sliced out of the line as they stand. A length
// that is missing, not decimal, overflows or runs past the end of the line
// is an error, so a cut or merged line never yields a shorter value.
func (p *recParser) raw() (string, error) {
	p.pos++ // #
	start := p.pos
	for p.pos < len(p.s) && '0' <= p.s[p.pos] && p.s[p.pos] <= '9' {
		p.pos++
	}
	n, err := strconv.Atoi(p.s[start:p.pos])
	if err != nil || p.peek() != ':' {
		return "", p.errf("bad raw value length")
	}
	p.pos++ // :
	if n > len(p.s)-p.pos {
		return "", p.errf("raw value of %d bytes runs past the end of the line", n)
	}
	v := p.s[p.pos : p.pos+n]
	p.pos += n
	return v, nil
}

// cmdSpace holds the bytes SplitCommand trims from a command line: the
// field separators and the line end. QuoteArg quotes an argument holding
// any of them, so an argument it leaves alone reads back whole.
const cmdSpace = " \t\r\n"

// SplitCommand tokenizes an MI input command line into (token, operation,
// args); quoted arguments may contain spaces. Each field is sliced from
// line unless it holds an escape or mixes quoted and bare text, and args
// is one slice of exactly its length, nil for a command without one.
func SplitCommand(line string) (token, op string, args []string, err error) {
	line = strings.Trim(line, cmdSpace)
	i := 0
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	token = line[:i]
	rest := strings.Trim(line[i:], cmdSpace)
	if rest == "" || rest[0] != '-' {
		return "", "", nil, fmt.Errorf("mi: command must start with '-': %q", line)
	}
	n := 0 // fields, the operation's included
	for i := skipBlanks(rest, 0); i < len(rest); i = skipBlanks(rest, i) {
		if _, i, _, err = scanField(rest, i); err != nil {
			return "", "", nil, err
		}
		n++
	}
	if n > 1 {
		args = make([]string, 0, n-1)
	}
	for i, k := 0, 0; k < n; k++ {
		f, end, plain, _ := scanField(rest, skipBlanks(rest, i))
		i = end
		if k == 0 {
			op = fieldValue(f, plain)
		} else {
			args = append(args, fieldValue(f, plain))
		}
	}
	return token, op, args, nil
}

// skipBlanks returns the index of the first byte at or after s[i:] that
// does not separate fields.
func skipBlanks(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	return i
}

// scanField finds the end of the field that starts at s[i], a byte that
// is not blank, and returns the field as written. A quote opens a quoted
// run, in which blanks are kept and backslash escapes are read, and the
// quote that closes it ends the field. plain reports a field with neither
// escapes nor quotes but a pair around the whole field.
func scanField(s string, i int) (f string, end int, plain bool, err error) {
	start := i
	inQ := false
	plain = true
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case inQ && c == '\\' && i+1 < len(s):
			plain = false
			i++
		case c == '"' && !inQ:
			inQ = true
			plain = plain && i == start
		case c == '"':
			return s[start : i+1], i + 1, plain, nil
		case !inQ && (c == ' ' || c == '\t'):
			return s[start:i], i, plain, nil
		}
	}
	if inQ {
		return "", i, false, fmt.Errorf("mi: unterminated quote in %q", s)
	}
	return s[start:], i, plain, nil
}

// fieldValue returns the value of a field scanField found: a plain field
// sliced, without its quotes, and any other built with its quotes dropped
// and the escapes of its quoted runs decoded (an unknown escape stays as
// written).
func fieldValue(f string, plain bool) string {
	if plain {
		if f != "" && f[0] == '"' {
			return f[1 : len(f)-1]
		}
		return f
	}
	var b strings.Builder
	b.Grow(len(f))
	inQ := false
	for i := 0; i < len(f); i++ {
		switch c := f[i]; {
		case inQ && c == '\\' && i+1 < len(f):
			i++
			if e, ok := unescape(f[i]); ok {
				b.WriteByte(e)
			} else {
				b.WriteByte('\\')
				b.WriteByte(f[i])
			}
		case c == '"':
			inQ = !inQ
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// QuoteArg quotes an argument for an MI command line if needed.
func QuoteArg(s string) string {
	if s != "" && !strings.ContainsAny(s, cmdSpace+`"\`) {
		return s
	}
	return string(appendQuoted(make([]byte, 0, len(s)+2), s))
}
