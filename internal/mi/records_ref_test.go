package mi

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// RawVal is a value refPrint writes as it stands behind a length prefix,
// "#<len>:<bytes>", as the server writes -et-inspect's State. Its bytes
// must hold no '\n' or '\r', which end an MI line. ParseRecord reads a raw
// value as a string, into the result's Str.
type RawVal []byte

func (RawVal) miValue() {}

// refPrint is the record printer the server's replies went through before
// it printed them straight into its reply buffer: it renders a Record
// whole, as one MI line without its newline. FuzzParseRecord checks that
// what it prints parses back to the record it printed, and checkReply
// that it prints each record the server sends as the server's own line.
func refPrint(r Record) string {
	var b strings.Builder
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
		refWriteQuoted(&b, r.Stream)
		return b.String()
	case TargetStreamRecord:
		b.WriteString("@")
		refWriteQuoted(&b, r.Stream)
		return b.String()
	case PromptRecord:
		return "(gdb)"
	}
	for _, res := range r.Results {
		b.WriteString(",")
		refPrintResult(&b, res)
	}
	return b.String()
}

func refPrintResult(b *strings.Builder, r Result) {
	b.WriteString(r.Var)
	b.WriteString("=")
	if r.Val == nil {
		refWriteQuoted(b, r.Str)
		return
	}
	refPrintValue(b, r.Val)
}

func refPrintValue(b *strings.Builder, v Value) {
	switch val := v.(type) {
	case StringVal:
		refWriteQuoted(b, string(val))
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
			refPrintResult(b, r)
		}
		b.WriteString("}")
	case List:
		b.WriteString("[")
		for i, e := range val {
			if i > 0 {
				b.WriteString(",")
			}
			refPrintValue(b, e)
		}
		b.WriteString("]")
	}
}

// refWriteQuoted writes s as a c-string with the escapes MI uses, byte by
// byte.
func refWriteQuoted(b *strings.Builder, s string) {
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

// checkReply parses each line of reply, a server's reply as Server.run
// returns it, and checks that refPrint prints the record it reads as the
// same bytes: the server's printer and the reference agree on every record
// the server sends. A result ParseRecord read from a raw value is printed
// as a raw value again. It returns the reply's records but the prompt.
func checkReply(t testing.TB, reply string) []Record {
	t.Helper()
	var recs []Record
	for reply != "" {
		var line string
		line, reply, _ = strings.Cut(reply, "\n")
		rec, err := ParseRecord(line)
		if err != nil {
			t.Fatalf("the server sent a line ParseRecord rejects: %v", err)
		}
		for i, r := range rec.Results {
			if r.Val == nil && strings.Contains(line, ","+r.Var+"=#"+strconv.Itoa(len(r.Str))+":"+r.Str) {
				rec.Results[i].Val = RawVal(r.Str)
			}
		}
		if got := refPrint(rec); got != line {
			t.Fatalf("the server sent %q; the reference printer prints the record it reads as %q", line, got)
		}
		if rec.Kind != PromptRecord {
			recs = append(recs, rec)
		}
	}
	return recs
}

// refParseRecord is the MI record parser that ParseRecord replaced: it
// boxes every string it reads in an interface, unboxed again into a
// result's Str, and grows each tuple as it reads. FuzzParseRecord holds
// ParseRecord to it.
func refParseRecord(line string) (Record, error) {
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
		return Record{}, fmt.Errorf("mi: bare token %s", refQuoteLine(line))
	}
	p := &refParser{s: rest, pos: 1}
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
	return Record{}, fmt.Errorf("mi: unrecognized record %s", refQuoteLine(line))
}

// refQuoteLine quotes s for an error: whole when short, else its first
// maxErrQuote bytes and its length.
func refQuoteLine(s string) string {
	if len(s) <= maxErrQuote {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%q... (%d bytes)", s[:maxErrQuote], len(s))
}

type refParser struct {
	s   string
	pos int
}

func (p *refParser) errf(format string, args ...any) error {
	return fmt.Errorf("mi: %s at byte %d in %s", fmt.Sprintf(format, args...), p.pos, refQuoteLine(p.s))
}

func (p *refParser) peek() byte {
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func (p *refParser) classAndResults() (Record, error) {
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

func (p *refParser) result() (Result, error) {
	start := p.pos
	for p.pos < len(p.s) && refIsNameByte(p.s[p.pos]) {
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
	if s, ok := v.(StringVal); ok {
		return Result{Var: name, Str: string(s)}, err
	}
	return Result{Var: name, Val: v}, err
}

// refIsNameByte reports whether c belongs to MI's variable grammar, the
// names a result may have: [A-Za-z0-9_-].
func refIsNameByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-'
}

func (p *refParser) value() (Value, error) {
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
func (p *refParser) cstring() (string, error) {
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
			c, ok := refUnescape(p.s[p.pos+1])
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

// refUnescape returns the byte a c-string's backslash escape stands for, the
// inverse of refWriteQuoted.
func refUnescape(e byte) (byte, bool) {
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
func (p *refParser) raw() (string, error) {
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

// refSplitCommand is the command splitter that SplitCommand replaced: it
// builds every argument in a strings.Builder. FuzzSplitCommand holds
// SplitCommand to it.
func refSplitCommand(line string) (token, op string, args []string, err error) {
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
	fields, err := refSplitQuoted(rest)
	if err != nil {
		return "", "", nil, err
	}
	return token, fields[0], fields[1:], nil
}

func refSplitQuoted(s string) ([]string, error) {
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
			if e, ok := refUnescape(s[i]); ok {
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
