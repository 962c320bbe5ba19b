package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is the nesting limit encoding/json's scanner enforces: a document
// that nests arrays and objects more deeply is rejected, so crafted input
// cannot exhaust the stack.
const maxDepth = 10000

// parser is a single-pass recursive-descent reader that fills the wire
// structs of json.go. On every document without duplicate object keys it
// accepts and rejects what encoding/json accepts and rejects when decoding
// into the same structs, and builds the same tree:
//
//   - whitespace may appear between any two tokens;
//   - keys may come in any order; a key is matched to a field exactly first,
//     then by bytes.EqualFold; unknown keys have their values validated and
//     skipped;
//   - null leaves a field at its zero value;
//   - integer fields accept only in-range integer literals, as
//     strconv.ParseInt and strconv.ParseUint read them;
//   - strings are unescaped by encoding/json's rules, with invalid UTF-8 and
//     lone surrogates replaced by U+FFFD, and copied out of the input;
//   - nesting deeper than maxDepth and trailing data are rejected.
//
// Every byte is read once: no value is re-scanned.
type parser struct {
	data  []byte
	off   int
	depth int
	buf   []byte // unescaped bytes of the last string that needed it

	// ltypes holds the first language types of the document, which most
	// of its values repeat, so each is copied out of the input once.
	ltypes  [8]string
	nltypes int
}

// The field names of each wire struct, as their json tags spell them.
var (
	stateKeys    = []string{"frames", "globals", "reason"}
	frameKeys    = []string{"name", "depth", "file", "line", "pc", "vars"}
	variableKeys = []string{"name", "value"}
	valueKeys    = []string{"id", "backref", "kind", "location", "address", "ltype", "prim", "ref", "list", "dict", "struct", "func"}
	primKeys     = []string{"t", "v"}
	pairKeys     = []string{"k", "v"}
	pauseKeys    = []string{"type", "function", "file", "line", "variable", "old", "new", "retval", "exit_code", "detail"}

	primTypes = []string{"int", "float", "bool", "str"}
)

// parseState parses a State document; a top-level null leaves js empty.
func parseState(data []byte, js *jsonState) error {
	p := &parser{data: data}
	if p.begin() {
		if err := p.state(js); err != nil {
			return err
		}
	}
	return p.end()
}

// parseValue parses a Value document; a top-level null leaves jv empty.
func parseValue(data []byte, jv *jsonValue) error {
	p := &parser{data: data}
	if p.begin() {
		if err := p.value(jv); err != nil {
			return err
		}
	}
	return p.end()
}

// parsePause parses a pause-reason document; a top-level null leaves jp
// empty.
func parsePause(data []byte, jp *jsonPause) error {
	p := &parser{data: data}
	if p.begin() {
		if err := p.pause(jp); err != nil {
			return err
		}
	}
	return p.end()
}

// parseValueList parses a ValueList document; null gives a nil list.
func parseValueList(data []byte) ([]*jsonValue, error) {
	p := &parser{data: data}
	var arr []*jsonValue
	p.ws()
	if err := array(p, &arr, (*parser).value); err != nil {
		return nil, err
	}
	return arr, p.end()
}

// fail reports a malformed or mistyped document at the current offset. A
// document cut short wraps io.ErrUnexpectedEOF.
func (p *parser) fail(what string) error {
	if p.off >= len(p.data) {
		return fmt.Errorf("core: JSON document: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("core: JSON document at byte %d: %s", p.off, what)
}

func (p *parser) ws() {
	for p.off < len(p.data) && p.data[p.off] <= ' ' {
		switch p.data[p.off] {
		case ' ', '\t', '\n', '\r':
			p.off++
		default:
			return
		}
	}
}

// begin skips leading whitespace and reports whether the top-level value is
// anything but null, which it consumes.
func (p *parser) begin() bool {
	p.ws()
	return !p.null()
}

// end rejects anything but whitespace after the top-level value.
func (p *parser) end() error {
	p.ws()
	if p.off < len(p.data) {
		return p.fail("trailing data after top-level value")
	}
	return nil
}

// null consumes a null literal if one is next.
func (p *parser) null() bool {
	if len(p.data)-p.off >= 4 && string(p.data[p.off:p.off+4]) == "null" {
		p.off += 4
		return true
	}
	return false
}

// open consumes the '{' or '[' that must come next and enforces maxDepth.
func (p *parser) open(c byte) error {
	if p.off >= len(p.data) || p.data[p.off] != c {
		if c == '{' {
			return p.fail("want object")
		}
		return p.fail("want array")
	}
	p.depth++
	if p.depth > maxDepth {
		return p.fail("exceeded max depth")
	}
	p.off++
	return nil
}

// next moves to member n of the object or array just opened, whose closing
// byte is end. It consumes the ',' before every member but the first, and
// reports false once it has consumed end.
func (p *parser) next(end byte, n int) (bool, error) {
	p.ws()
	if p.off < len(p.data) && p.data[p.off] == end {
		p.off++
		p.depth--
		return false, nil
	}
	if n > 0 {
		if p.off >= len(p.data) || p.data[p.off] != ',' {
			return false, p.fail("want ',' or closing bracket")
		}
		p.off++
		p.ws()
	}
	return true, nil
}

// key reads a member key and its ':' and returns the name in names the key
// matches, exactly or else by bytes.EqualFold as encoding/json matches
// struct fields, or "" for an unknown key.
func (p *parser) key(names []string) (string, error) {
	k, err := p.strBytes()
	if err != nil {
		return "", err
	}
	p.ws()
	if p.off >= len(p.data) || p.data[p.off] != ':' {
		return "", p.fail("want ':'")
	}
	p.off++
	p.ws()
	for _, n := range names {
		if string(k) == n {
			return n, nil
		}
	}
	for _, n := range names {
		if bytes.EqualFold(k, []byte(n)) {
			return n, nil
		}
	}
	return "", nil
}

// object reads an object into a new *T stored in *dst, or stores nil for
// null.
func object[T any](p *parser, dst **T, fill func(*parser, *T) error) error {
	if p.null() {
		*dst = nil
		return nil
	}
	t := new(T)
	if err := fill(p, t); err != nil {
		return err
	}
	*dst = t
	return nil
}

// array reads an array of objects into *dst (a null element stays a nil
// pointer), or stores nil for null.
func array[T any](p *parser, dst *[]*T, fill func(*parser, *T) error) error {
	if p.null() {
		*dst = nil
		return nil
	}
	if err := p.open('['); err != nil {
		return err
	}
	out := []*T{}
	for n := 0; ; n++ {
		more, err := p.next(']', n)
		if err != nil {
			return err
		}
		if !more {
			*dst = out
			return nil
		}
		var t *T
		if err := object(p, &t, fill); err != nil {
			return err
		}
		out = append(out, t)
	}
}

// strInto reads a string into *dst; null leaves *dst as it is. A string
// equal to one of names is stored as that name, without a copy.
func (p *parser) strInto(dst *string, names []string) error {
	if p.null() {
		return nil
	}
	b, err := p.strBytes()
	if err != nil {
		return err
	}
	for _, n := range names {
		if string(b) == n {
			*dst = n
			return nil
		}
	}
	*dst = string(b)
	return nil
}

// ltypeInto reads a language type into *dst like strInto, sharing one copy
// of each of the document's first few types among the values that repeat
// it.
func (p *parser) ltypeInto(dst *string) error {
	seen := p.ltypes[:p.nltypes]
	if err := p.strInto(dst, seen); err != nil {
		return err
	}
	if p.nltypes < len(p.ltypes) && !slices.Contains(seen, *dst) {
		p.ltypes[p.nltypes] = *dst
		p.nltypes++
	}
	return nil
}

// intInto reads an integer literal into *dst; null leaves *dst as it is.
func (p *parser) intInto(dst *int) error {
	if p.null() {
		return nil
	}
	lit, err := p.number()
	if err != nil {
		return err
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	u, ok := parseDigits(lit)
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if !ok || u > limit {
		return p.fail("integer field needs an in-range integer")
	}
	n := int(u)
	if neg {
		n = -n
	}
	*dst = n
	return nil
}

// uintInto reads an unsigned integer literal into *dst; null leaves *dst as
// it is.
func (p *parser) uintInto(dst *uint64) error {
	if p.null() {
		return nil
	}
	lit, err := p.number()
	if err != nil {
		return err
	}
	u, ok := parseDigits(lit)
	if !ok {
		return p.fail("unsigned field needs an in-range unsigned integer")
	}
	*dst = u
	return nil
}

// parseDigits converts a decimal literal of digits only, reporting false on
// any other byte or on overflow.
func parseDigits(lit []byte) (uint64, bool) {
	var n uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (1<<64-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits consumes a run of decimal digits and reports whether there was one.
func (p *parser) digits() bool {
	start := p.off
	for p.off < len(p.data) && isDigit(p.data[p.off]) {
		p.off++
	}
	return p.off > start
}

// number consumes a number literal in JSON's grammar and returns its bytes.
func (p *parser) number() ([]byte, error) {
	start := p.off
	if p.off < len(p.data) && p.data[p.off] == '-' {
		p.off++
	}
	switch {
	case p.off < len(p.data) && p.data[p.off] == '0':
		p.off++
	case !p.digits():
		return nil, p.fail("want number")
	}
	if p.off < len(p.data) && p.data[p.off] == '.' {
		p.off++
		if !p.digits() {
			return nil, p.fail("want digit after decimal point")
		}
	}
	if p.off < len(p.data) && (p.data[p.off] == 'e' || p.data[p.off] == 'E') {
		p.off++
		if p.off < len(p.data) && (p.data[p.off] == '+' || p.data[p.off] == '-') {
			p.off++
		}
		if !p.digits() {
			return nil, p.fail("want digit in exponent")
		}
	}
	return p.data[start:p.off], nil
}

// plainByte marks the bytes a string literal holds as they are: ASCII from
// space up, except '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// strBytes reads a string literal and returns its unescaped bytes, which
// alias the input or p.buf and stay valid only until the next string.
func (p *parser) strBytes() ([]byte, error) {
	if p.off >= len(p.data) || p.data[p.off] != '"' {
		return nil, p.fail("want string")
	}
	start := p.off + 1
	for i := start; i < len(p.data); {
		c := p.data[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			p.off = i + 1
			return p.data[start:i], nil
		case c == '\\' || c < ' ':
			return p.unescape(start, i)
		default:
			r, size := utf8.DecodeRune(p.data[i:])
			if r == utf8.RuneError && size == 1 {
				return p.unescape(start, i)
			}
			i += size
		}
	}
	p.off = len(p.data)
	return nil, p.fail("unterminated string")
}

// unescape finishes a string literal whose bytes from start to i need no
// change, writing the unescaped string into p.buf.
func (p *parser) unescape(start, i int) ([]byte, error) {
	b := append(p.buf[:0], p.data[start:i]...)
	defer func() { p.buf = b[:0] }()
	for i < len(p.data) {
		c := p.data[i]
		switch {
		case c == '"':
			p.off = i + 1
			return b, nil
		case c < ' ':
			p.off = i
			return nil, p.fail("control character in string")
		case c == '\\':
			p.off = i
			if i+1 >= len(p.data) {
				p.off = len(p.data)
				return nil, p.fail("unterminated string")
			}
			switch e := p.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(p.data[i:])
				if r < 0 {
					return nil, p.fail("bad unicode escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// Only a high surrogate followed by an escaped low one
					// makes a pair; anything else becomes U+FFFD and the
					// following escape is read on its own.
					if dec := utf16.DecodeRune(r, hex4(p.data[i:])); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, p.fail("bad escape in string")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(p.data[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, p.data[i:i+size]...)
			}
			i += size
		}
	}
	p.off = len(p.data)
	return nil, p.fail("unterminated string")
}

// hex4 decodes the backslash-u escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// literal consumes the literal lit, which must come next.
func (p *parser) literal(lit string) error {
	if !bytes.HasPrefix(p.data[p.off:], []byte(lit)) {
		return p.fail("want " + lit)
	}
	p.off += len(lit)
	return nil
}

// skip validates and consumes one value of any type: the value of a key
// no wire struct has.
func (p *parser) skip() error {
	if p.off >= len(p.data) {
		return p.fail("want value")
	}
	switch c := p.data[p.off]; {
	case c == '{':
		return p.fields(nil, nil) // every key is unknown, so each value is skipped
	case c == '[':
		if err := p.open('['); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := p.next(']', n)
			if err != nil || !more {
				return err
			}
			if err := p.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := p.strBytes()
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	case c == '-' || isDigit(c):
		_, err := p.number()
		return err
	}
	return p.fail("want value")
}

// fields reads the members of an object, calling set with the matched name
// from names ("" for an unknown key) to read each value.
func (p *parser) fields(names []string, set func(name string) error) error {
	if err := p.open('{'); err != nil {
		return err
	}
	for n := 0; ; n++ {
		more, err := p.next('}', n)
		if err != nil || !more {
			return err
		}
		name, err := p.key(names)
		if err != nil {
			return err
		}
		if name == "" {
			err = p.skip()
		} else {
			err = set(name)
		}
		if err != nil {
			return err
		}
	}
}

func (p *parser) state(js *jsonState) error {
	return p.fields(stateKeys, func(name string) error {
		switch name {
		case "frames":
			return array(p, &js.Frames, (*parser).frame)
		case "globals":
			return array(p, &js.Globals, (*parser).variable)
		default: // reason
			return object(p, &js.Reason, (*parser).pause)
		}
	})
}

func (p *parser) frame(jf *jsonFrame) error {
	return p.fields(frameKeys, func(name string) error {
		switch name {
		case "name":
			return p.strInto(&jf.Name, nil)
		case "depth":
			return p.intInto(&jf.Depth)
		case "file":
			return p.strInto(&jf.File, nil)
		case "line":
			return p.intInto(&jf.Line)
		case "pc":
			return p.uintInto(&jf.PC)
		default: // vars
			return array(p, &jf.Vars, (*parser).variable)
		}
	})
}

func (p *parser) variable(jv *jsonVariable) error {
	return p.fields(variableKeys, func(name string) error {
		if name == "name" {
			return p.strInto(&jv.Name, nil)
		}
		return object(p, &jv.Value, (*parser).value)
	})
}

// structField reads a struct member, which has the shape of a variable.
func (p *parser) structField(jf *jsonField) error {
	return p.variable((*jsonVariable)(jf))
}

func (p *parser) value(jv *jsonValue) error {
	return p.fields(valueKeys, func(name string) error {
		switch name {
		case "id":
			return p.intInto(&jv.ID)
		case "backref":
			return p.intInto(&jv.Backref)
		case "kind":
			return p.strInto(&jv.Kind, abstractTypeNames[:])
		case "location":
			return p.strInto(&jv.Loc, locationNames[:])
		case "address":
			return p.uintInto(&jv.Addr)
		case "ltype":
			return p.ltypeInto(&jv.LType)
		case "prim":
			return object(p, &jv.Prim, (*parser).prim)
		case "ref":
			return object(p, &jv.Ref, (*parser).value)
		case "list":
			return array(p, &jv.List, (*parser).value)
		case "dict":
			return array(p, &jv.Dict, (*parser).pair)
		case "struct":
			return array(p, &jv.Struct, (*parser).structField)
		default: // func
			return p.strInto(&jv.Func, nil)
		}
	})
}

func (p *parser) prim(jp *jsonPrim) error {
	return p.fields(primKeys, func(name string) error {
		if name == "t" {
			return p.strInto(&jp.Type, primTypes)
		}
		return p.strInto(&jp.Value, nil)
	})
}

func (p *parser) pair(jp *jsonDictPair) error {
	return p.fields(pairKeys, func(name string) error {
		if name == "k" {
			return object(p, &jp.Key, (*parser).value)
		}
		return object(p, &jp.Val, (*parser).value)
	})
}

func (p *parser) pause(jp *jsonPause) error {
	return p.fields(pauseKeys, func(name string) error {
		switch name {
		case "type":
			return p.strInto(&jp.Type, pauseNames[:])
		case "function":
			return p.strInto(&jp.Function, nil)
		case "file":
			return p.strInto(&jp.File, nil)
		case "line":
			return p.intInto(&jp.Line)
		case "variable":
			return p.strInto(&jp.Variable, nil)
		case "old":
			return object(p, &jp.Old, (*parser).value)
		case "new":
			return object(p, &jp.New, (*parser).value)
		case "retval":
			return object(p, &jp.RetVal, (*parser).value)
		case "exit_code":
			return p.intInto(&jp.ExitCode)
		default: // detail
			return p.strInto(&jp.Detail, nil)
		}
	})
}
