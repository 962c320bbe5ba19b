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

// Value is an MI value: a string (c-string on the wire), a raw value, a
// Tuple, or a List.
type Value interface{ miValue() }

// StringVal is a c-string value.
type StringVal string

// RawVal is a value written as it stands behind a length prefix,
// "#<len>:<bytes>", instead of being quoted as a c-string. It carries
// -et-inspect's State exactly as the codec wrote it. Its bytes must hold no
// '\n' or '\r', which end an MI line. ParseRecord returns a raw value as a
// StringVal, so readers get it with GetString either way.
type RawVal []byte

// Tuple is "{var=value,...}".
type Tuple []Result

// List is "[value,...]" (or "[var=value,...]"; we normalize to values,
// wrapping var=value items as single-field tuples).
type List []Value

func (StringVal) miValue() {}
func (RawVal) miValue()    {}
func (Tuple) miValue()     {}
func (List) miValue()      {}

// Result is one var=value pair.
type Result struct {
	Var string
	Val Value
}

// Get returns the value of the named field in a tuple, or nil.
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
	if v, ok := t.Get(name).(StringVal); ok {
		return string(v)
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

// Print renders the record as one MI line (without trailing newline).
func (r Record) Print() string {
	var b strings.Builder
	// A raw value is most of its line: size the line for it up front, so
	// its bytes are copied once.
	for _, res := range r.Results {
		if raw, ok := res.Val.(RawVal); ok {
			b.Grow(len(raw) + 64*len(r.Results))
		}
	}
	switch r.Kind {
	case ResultRecord:
		b.WriteString(r.Token)
		b.WriteString("^")
		b.WriteString(r.Class)
	case AsyncRecord:
		b.WriteString("*")
		b.WriteString(r.Class)
	case NotifyRecord:
		b.WriteString("=")
		b.WriteString(r.Class)
	case StreamRecord:
		b.WriteString("~")
		writeQuoted(&b, r.Stream)
		return b.String()
	case TargetStreamRecord:
		b.WriteString("@")
		writeQuoted(&b, r.Stream)
		return b.String()
	case PromptRecord:
		return "(gdb)"
	}
	for _, res := range r.Results {
		b.WriteString(",")
		printResult(&b, res)
	}
	return b.String()
}

func printResult(b *strings.Builder, r Result) {
	b.WriteString(r.Var)
	b.WriteString("=")
	printValue(b, r.Val)
}

func printValue(b *strings.Builder, v Value) {
	switch val := v.(type) {
	case StringVal:
		writeQuoted(b, string(val))
	case RawVal:
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(len(val)))
		b.WriteByte(':')
		b.Write(val)
	case Tuple:
		b.WriteString("{")
		for i, r := range val {
			if i > 0 {
				b.WriteString(",")
			}
			printResult(b, r)
		}
		b.WriteString("}")
	case List:
		b.WriteString("[")
		for i, e := range val {
			if i > 0 {
				b.WriteString(",")
			}
			printValue(b, e)
		}
		b.WriteString("]")
	case nil:
		b.WriteString(`""`)
	default:
		writeQuoted(b, fmt.Sprint(val))
	}
}

// writeQuoted writes s as a c-string with the escapes MI uses. It works
// byte by byte and copies each run without escapes in one write, so bytes
// that are not UTF-8 cross unchanged.
func writeQuoted(b *strings.Builder, s string) {
	b.WriteByte('"')
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
		b.WriteString(s[start:i])
		b.WriteString(esc)
		start = i + 1
	}
	b.WriteString(s[start:])
	b.WriteByte('"')
}

// ParseRecord parses one MI output line.
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
	p := &recParser{s: rest, pos: 1}
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
	name := p.s[start:p.pos]
	p.pos++ // =
	v, err := p.value()
	return Result{Var: name, Val: v}, err
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
		var t Tuple
		if p.peek() == '}' {
			p.pos++
			return t, nil
		}
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
		var l List
		if p.peek() == ']' {
			p.pos++
			return l, nil
		}
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
// inverse of writeQuoted.
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
// args); quoted arguments may contain spaces.
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
	fields, err := splitQuoted(rest)
	if err != nil {
		return "", "", nil, err
	}
	return token, fields[0], fields[1:], nil
}

func splitQuoted(s string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQ := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQ && c == '\\' && i+1 < len(s):
			i++
			if e, ok := unescape(s[i]); ok {
				cur.WriteByte(e)
			} else {
				cur.WriteByte('\\')
				cur.WriteByte(s[i])
			}
		case c == '"':
			inQ = !inQ
			if !inQ {
				out = append(out, cur.String())
				cur.Reset()
			}
		case !inQ && (c == ' ' || c == '\t'):
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	if inQ {
		return nil, fmt.Errorf("mi: unterminated quote in %q", s)
	}
	flush()
	if len(out) == 0 {
		return nil, fmt.Errorf("mi: empty command")
	}
	return out, nil
}

// QuoteArg quotes an argument for an MI command line if needed.
func QuoteArg(s string) string {
	if s != "" && !strings.ContainsAny(s, cmdSpace+`"\`) {
		return s
	}
	var b strings.Builder
	writeQuoted(&b, s)
	return b.String()
}
