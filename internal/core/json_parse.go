package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is the nesting limit encoding/json's scanner enforces: a document
// that nests arrays and objects more deeply is rejected, so crafted input
// cannot exhaust the stack.
const maxDepth = 10000

// decoder reads State, Value, ValueList and pause-reason documents straight
// into the value graph: each Value is allocated when its object is read,
// and a backref resolves through the table of the ids read before it.
//
// It accepts and rejects what encoding/json does when it decodes into the
// format's wire structs, and builds the graph the walk over those structs
// builds (on every document without duplicate object keys):
//
//   - whitespace may appear between any two tokens;
//   - keys may come in any order; a key is matched exactly first, then by
//     bytes.EqualFold; unknown keys have their values validated and skipped;
//   - null leaves a member at its zero value;
//   - integer members take only in-range integer literals;
//   - strings are unescaped by encoding/json's rules, with invalid UTF-8 and
//     lone surrogates replaced by U+FFFD, and copied out of the input;
//   - nesting deeper than maxDepth and trailing data are rejected;
//   - ids are registered and backrefs resolved in tree order: frames
//     innermost first, then globals, then the reason's old, new and retval;
//     a value before its content, a dict entry's key before its value; and
//     only the content a value's kind names, of a value that is not a
//     backref, counts.
//
// The encoder writes every object's keys in tree order, so one pass in
// document order (fast mode) reads its documents. A document whose keys
// stray from that order, or that breaks a rule of the format, is read
// again: for syntax and member types alone (check mode), then in tree order
// (tree mode), each object's members located first and read in the
// format's order. So a syntax error answers first, and a truncated
// document wraps io.ErrUnexpectedEOF.
type decoder struct {
	data  []byte
	off   int
	depth int
	buf   []byte // unescaped bytes of the last string that needed it
	mode  decodeMode

	// ids[n] is the value registered under id n for 0 < n < len(ids);
	// far holds ids outside the range a document of this size can use.
	ids []*Value
	far map[int]*Value
	// root, when set, is the storage for the first value allocated: the
	// receiver of Value.UnmarshalJSON.
	root *Value

	// The members of the arrays being read, innermost array on top; each
	// array copies its own out, exactly sized, when it ends.
	vals    []*Value
	entries []DictEntry
	fields  []Field
	vars    []Variable
	frames  []Frame

	// The first language types and the first other strings of the
	// document, which it repeats.
	ltypes, strs strCache
}

// strCache holds the first strings of one sort that a document holds,
// each with its literal, so a repeat is matched by its bytes and shares one
// copy.
type strCache struct {
	s   [8]string
	lit [8]lit
	n   int
}

func (c *strCache) reset() {
	clear(c.s[:c.n])
	clear(c.lit[:c.n])
	c.n = 0
}

// lit is a literal the decoder matches by its bytes: the first eight as
// one word, under a mask when the literal is shorter, then the rest.
type lit struct {
	head, mask uint64
	n          int
	tail       []byte
}

func makeLit(b []byte) lit {
	l := lit{head: head8(b), mask: ^uint64(0), n: len(b)}
	if len(b) < 8 {
		l.mask >>= 8 * (8 - len(b))
		l.head &= l.mask
	} else {
		l.tail = b[8:]
	}
	return l
}

// at reports whether l starts rest, whose head8 is x.
func (l *lit) at(rest []byte, x uint64) bool {
	return x&l.mask == l.head && (l.n <= 8 || len(rest) >= l.n && string(rest[8:l.n]) == string(l.tail))
}

// head8 returns the first eight bytes of b, zero-padded, as a little-endian
// word. A literal holds no zero byte, so padding never matches one.
func head8(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var p [8]byte
	copy(p[:], b)
	return binary.LittleEndian.Uint64(p[:])
}

type decodeMode uint8

const (
	fast  decodeMode = iota // document order, building the graph
	check                   // document order, syntax and member types only
	tree                    // tree order, building the graph
)

// errRetry ends a fast-mode read at the first key out of tree order or
// the first broken rule of the format.
var errRetry = errors.New("core: read again in tree order")

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// Scratch larger than this is dropped rather than pooled, as in the encoder.
const maxPooledScratch = 1 << 12

// decode reads data with read: in fast mode, then, if that gives up, in
// check mode and tree mode. root is the receiver of Value.UnmarshalJSON, or
// nil.
func decode(data []byte, root *Value, read func(*decoder) error) error {
	d := decoderPool.Get().(*decoder)
	defer d.release()
	d.data = data
	err := d.run(fast, root, read)
	if err == errRetry {
		d.reset()
		if err = d.run(check, nil, read); err == nil {
			d.reset()
			err = d.run(tree, root, read)
		}
	}
	return err
}

func (d *decoder) run(mode decodeMode, root *Value, read func(*decoder) error) error {
	d.mode, d.root = mode, root
	d.ws()
	if err := read(d); err != nil {
		return err
	}
	return d.end()
}

// reset readies d to read its document from the start, dropping every
// reference into the graph read before. A decoder from the pool is reset.
func (d *decoder) reset() {
	d.off, d.depth, d.far = 0, 0, nil
	d.ids = clearAll(d.ids)
	d.vals = clearAll(d.vals)
	d.entries = clearAll(d.entries)
	d.fields = clearAll(d.fields)
	d.vars = clearAll(d.vars)
	d.frames = clearAll(d.frames)
	d.ltypes.reset()
	d.strs.reset()
}

func clearAll[T any](s []T) []T {
	if cap(s) > maxPooledScratch {
		return nil
	}
	clear(s)
	return s[:0]
}

// release drops every reference into the document and its graph and puts d
// back in the pool.
func (d *decoder) release() {
	d.reset()
	d.data, d.root = nil, nil
	if cap(d.buf) > maxPooledScratch {
		d.buf = nil
	}
	decoderPool.Put(d)
}

// semantic reports err, a broken rule of the format: fast mode reads the
// document again, check mode does not look at such rules, and tree mode
// fails.
func (d *decoder) semantic(err error) error {
	switch d.mode {
	case fast:
		return errRetry
	case check:
		return nil
	}
	return err
}

// outOfOrder reports whether a member that can hold values arrives where
// tree order does not have it: after its object's member k, or again.
func (d *decoder) outOfOrder(last *int, k int) bool {
	if d.mode != fast {
		return false
	}
	if k <= *last {
		return true
	}
	*last = k
	return false
}

// register files v under id for the backrefs read after it.
func (d *decoder) register(id int, v *Value) {
	switch {
	case id == 0:
	case 0 < id && id <= len(d.data)/4: // a value's object takes more than 4 bytes
		if id >= len(d.ids) {
			d.ids = slices.Grow(d.ids, id+1-len(d.ids))[:id+1]
		}
		d.ids[id] = v
	default:
		if d.far == nil {
			d.far = map[int]*Value{}
		}
		d.far[id] = v
	}
}

// lookup returns the value registered under id, or nil.
func (d *decoder) lookup(id int) *Value {
	if 0 < id && id < len(d.ids) {
		return d.ids[id]
	}
	return d.far[id]
}

// newValue allocates the value an object stands for and registers it under
// id, before its content is read, so a backref inside the content can name
// it.
func (d *decoder) newValue(id int) *Value {
	v := d.root
	if v != nil {
		d.root = nil
		*v = Value{}
	} else {
		v = new(Value)
	}
	d.register(id, v)
	return v
}

// pop copies the members an array pushed on stack since start out into a
// slice of their own, nil for none, and clears them off the stack.
func pop[T any](stack *[]T, start int) []T {
	s := *stack
	var out []T
	if len(s) > start {
		out = slices.Clone(s[start:])
	}
	clear(s[start:])
	*stack = s[:start]
	return out
}

// fail reports a malformed or mistyped document at the current offset. A
// document cut short wraps io.ErrUnexpectedEOF.
func (d *decoder) fail(what string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("core: JSON document: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("core: JSON document at byte %d: %s", d.off, what)
}

func (d *decoder) ws() {
	for d.off < len(d.data) && d.data[d.off] <= ' ' {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// end rejects anything but whitespace after the top-level value.
func (d *decoder) end() error {
	d.ws()
	if d.off < len(d.data) {
		return d.fail("trailing data after top-level value")
	}
	return nil
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool { return d.lit("null") }

// lit consumes s if it comes next.
func (d *decoder) lit(s string) bool {
	if len(d.data)-d.off >= len(s) && string(d.data[d.off:d.off+len(s)]) == s {
		d.off += len(s)
		return true
	}
	return false
}

// open consumes the '{' or '[' that must come next and enforces maxDepth.
func (d *decoder) open(c byte) error {
	if d.off >= len(d.data) || d.data[d.off] != c {
		if c == '{' {
			return d.fail("want object")
		}
		return d.fail("want array")
	}
	d.depth++
	if d.depth > maxDepth {
		return d.fail("exceeded max depth")
	}
	d.off++
	return nil
}

// next moves to member n of the object or array just opened, whose closing
// byte is end. It consumes the ',' before every member but the first, and
// reports false once it has consumed end.
func (d *decoder) next(end byte, n int) (bool, error) {
	d.ws()
	if d.off < len(d.data) && d.data[d.off] == end {
		d.off++
		d.depth--
		return false, nil
	}
	if n > 0 {
		if d.off >= len(d.data) || d.data[d.off] != ',' {
			return false, d.fail("want ',' or closing bracket")
		}
		d.off++
		d.ws()
	}
	return true, nil
}

// words are names the format spells out, each with its JSON literal as
// the encoder writes it (a key's with its ':'), so the decoder can match a
// name without reading the string first.
type words struct {
	names []string
	lits  []lit
}

func newWords(suffix string, names ...string) *words {
	w := &words{names: names}
	for _, n := range names {
		w.lits = append(w.lits, makeLit([]byte(`"`+n+`"`+suffix)))
	}
	return w
}

// word consumes the literal of one of w's names if one comes next, trying
// them from names[from] on, and returns its index, or -1.
func (d *decoder) word(w *words, from int) int {
	rest := d.data[d.off:]
	x := head8(rest)
	for i, n := 0, len(w.lits); i < n; i++ {
		k := from + i
		if k >= n {
			k -= n
		}
		if l := &w.lits[k]; l.at(rest, x) {
			d.off += l.n
			return k
		}
	}
	return -1
}

// key reads a member key and its ':' and returns the index in w of the
// name the key matches, exactly or else by bytes.EqualFold as encoding/json
// matches struct fields, or -1 for an unknown key. The names are tried
// from names[from] on, where the encoder writes the next key.
func (d *decoder) key(w *words, from int) (int, error) {
	k := d.word(w, from)
	if k < 0 {
		b, err := d.strBytes()
		if err != nil {
			return -1, err
		}
		k = w.match(b)
		d.ws()
		if d.off >= len(d.data) || d.data[d.off] != ':' {
			return -1, d.fail("want ':'")
		}
		d.off++
	}
	d.ws()
	return k, nil
}

// match returns the index of the name b spells, exactly or else by
// bytes.EqualFold, or -1.
func (w *words) match(b []byte) int {
	for i, n := range w.names {
		if string(b) == n {
			return i
		}
	}
	for i, n := range w.names {
		if bytes.EqualFold(b, []byte(n)) {
			return i
		}
	}
	return -1
}

// members reads an object, calling set(k) to read the value of each member
// whose key matches w's name k; unknown keys are skipped. In tree mode it
// notes where each member's value starts (the last, for a repeated key)
// and reads them in the order of w, whatever their order in the document.
func (d *decoder) members(w *words, set func(k int) error) error {
	if d.mode != tree {
		return d.object(w, set)
	}
	var at [12]int // 1 + the offset of member k's value, 0 if absent
	err := d.object(w, func(k int) error {
		at[k] = d.off + 1
		return d.skip()
	})
	if err != nil {
		return err
	}
	end := d.off
	for k, off := range at[:len(w.names)] {
		if off > 0 {
			d.off = off - 1
			if err := set(k); err != nil {
				return err
			}
		}
	}
	d.off = end
	return nil
}

// object reads an object in document order, calling set(k) to read the
// value of each member whose key matches w's name k; unknown keys are
// skipped.
func (d *decoder) object(w *words, set func(k int) error) error {
	if err := d.open('{'); err != nil {
		return err
	}
	return d.rest(w, 0, 0, set)
}

// rest reads the members of the object being read from its member n on,
// as object does; the next key is normally w's name from.
func (d *decoder) rest(w *words, n, from int, set func(k int) error) error {
	for ; ; n++ {
		more, err := d.next('}', n)
		if err != nil || !more {
			return err
		}
		k, err := d.key(w, from)
		if err != nil {
			return err
		}
		if k < 0 {
			err = d.skip()
		} else {
			from = k + 1
			err = set(k)
		}
		if err != nil {
			return err
		}
	}
}

// elems reads an array, calling elem to read each element.
func (d *decoder) elems(elem func() error) error {
	if err := d.open('['); err != nil {
		return err
	}
	for n := 0; ; n++ {
		more, err := d.next(']', n)
		if err != nil || !more {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

// name reads a string that is normally one of w's names into *dst, sharing
// the name's constant; null leaves *dst as it is.
func (d *decoder) name(dst *string, w *words) error {
	if d.null() || d.wordInto(dst, w) {
		return nil
	}
	b, err := d.strBytes()
	if err != nil {
		return err
	}
	if k := slices.Index(w.names, string(b)); k >= 0 {
		*dst = w.names[k]
	} else {
		*dst = string(b)
	}
	return nil
}

// cached reads a string into *dst, sharing one copy of each of the first
// strings c met; null leaves *dst as it is.
func (d *decoder) cached(dst *string, c *strCache) error {
	if d.null() {
		return nil
	}
	rest := d.data[d.off:]
	x := head8(rest)
	for i := range c.n {
		if l := &c.lit[i]; l.at(rest, x) {
			d.off += l.n
			*dst = c.s[i]
			return nil
		}
	}
	at := d.off
	b, err := d.strBytes()
	if err != nil {
		return err
	}
	*dst = string(b)
	if c.n < len(c.s) {
		c.s[c.n], c.lit[c.n] = *dst, makeLit(d.data[at:d.off])
		c.n++
	}
	return nil
}

// intInto reads an integer literal into *dst; null leaves *dst as it is.
func (d *decoder) intInto(dst *int) error {
	if d.null() {
		return nil
	}
	lit, err := d.number()
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
		return d.fail("integer field needs an in-range integer")
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
func (d *decoder) uintInto(dst *uint64) error {
	if d.null() {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	u, ok := parseDigits(lit)
	if !ok {
		return d.fail("unsigned field needs an in-range unsigned integer")
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
func (d *decoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && isDigit(d.data[d.off]) {
		d.off++
	}
	return d.off > start
}

// number consumes a number literal in JSON's grammar and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	if d.off < len(d.data) && d.data[d.off] == '-' {
		d.off++
	}
	switch {
	case d.off < len(d.data) && d.data[d.off] == '0':
		d.off++
	case !d.digits():
		return nil, d.fail("want number")
	}
	if d.off < len(d.data) && d.data[d.off] == '.' {
		d.off++
		if !d.digits() {
			return nil, d.fail("want digit after decimal point")
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if !d.digits() {
			return nil, d.fail("want digit in exponent")
		}
	}
	return d.data[start:d.off], nil
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
// alias the input or d.buf and stay valid only until the next string.
func (d *decoder) strBytes() ([]byte, error) {
	if d.off >= len(d.data) || d.data[d.off] != '"' {
		return nil, d.fail("want string")
	}
	start := d.off + 1
	for i := start; i < len(d.data); {
		c := d.data[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < ' ':
			return d.unescape(start, i)
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start, i)
			}
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.fail("unterminated string")
}

// unescape finishes a string literal whose bytes from start to i need no
// change, writing the unescaped string into d.buf.
func (d *decoder) unescape(start, i int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:i]...)
	defer func() { d.buf = b[:0] }()
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.off = i + 1
			return b, nil
		case c < ' ':
			d.off = i
			return nil, d.fail("control character in string")
		case c == '\\':
			d.off = i
			if i+1 >= len(d.data) {
				d.off = len(d.data)
				return nil, d.fail("unterminated string")
			}
			switch e := d.data[i+1]; e {
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
				r := hex4(d.data[i:])
				if r < 0 {
					return nil, d.fail("bad unicode escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// Only a high surrogate followed by an escaped low one
					// makes a pair; anything else becomes U+FFFD and the
					// following escape is read on its own.
					if dec := utf16.DecodeRune(r, hex4(d.data[i:])); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, d.fail("bad escape in string")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, d.data[i:i+size]...)
			}
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.fail("unterminated string")
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

// skip validates and consumes one value of any type: the value of a key
// the format does not have.
func (d *decoder) skip() error {
	if d.off >= len(d.data) {
		return d.fail("want value")
	}
	switch c := d.data[d.off]; {
	case c == '{':
		return d.object(noKeys, nil) // every key is unknown
	case c == '[':
		return d.elems(d.skip)
	case c == '"':
		_, err := d.strBytes()
		return err
	case c == 't' || c == 'f' || c == 'n':
		if d.lit("true") || d.lit("false") || d.null() {
			return nil
		}
		return d.fail("want true, false or null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.fail("want value")
}

// The members of each object of the format, in tree order.
var (
	stateKeys = newWords(":", "frames", "globals", "reason")
	frameKeys = newWords(":", "name", "depth", "file", "line", "pc", "vars")
	namedKeys = newWords(":", "name", "value") // a variable or a struct field
	valueKeys = newWords(":", "id", "backref", "kind", "location", "address", "ltype", "prim", "ref", "list", "dict", "struct", "func")
	primKeys  = newWords(":", "t", "v")
	pairKeys  = newWords(":", "k", "v")
	pauseKeys = newWords(":", "type", "function", "file", "line", "variable", "old", "new", "retval", "exit_code", "detail")
	noKeys    = newWords(":")

	kindWords     = newWords("", abstractTypeNames[:]...)
	locationWords = newWords("", locationNames[:]...)
	pauseWords    = newWords("", pauseNames[:]...)
	primTypes     = newWords("", "int", "float", "bool", "str")
)

// The indices of valueKeys.
const (
	keyID = iota
	keyBackref
	keyKind
	keyLocation
	keyAddress
	keyLtype
	keyPrim
	keyRef
	keyList
	keyDict
	keyStruct
	keyFunc
)

// contentKey is the member of valueKeys that holds the content of a value
// of each kind, or -1 when the kind's content holds no values.
var contentKey = [...]int{
	Primitive: -1, Ref: keyRef, List: keyList, Dict: keyDict, Struct: keyStruct,
	None: -1, Invalid: -1, Function: -1,
}

// emptyContent is the Content of a value of kind Ref, List, Dict or Struct
// without content. Being empty, the containers can be shared.
var emptyContent = [...]any{
	Ref: (*Value)(nil), List: []*Value{}, Dict: []DictEntry{}, Struct: []Field{},
}

func (d *decoder) state() (s State, err error) {
	if d.null() {
		return s, nil
	}
	last := -1
	err = d.members(stateKeys, func(k int) error {
		if d.outOfOrder(&last, k) {
			return errRetry
		}
		var err error
		switch k {
		case 0:
			var fs []Frame
			fs, err = objects(d, &d.frames, "frame", d.frame)
			for i := 0; i+1 < len(fs); i++ {
				fs[i].Parent = &fs[i+1]
			}
			if len(fs) > 0 {
				s.Frame = &fs[0]
			}
		case 1:
			s.Globals, err = d.variables()
		default:
			s.Reason, _, err = d.pause()
		}
		return err
	})
	return s, err
}

// objects reads an array of objects, or null, with read, and returns them,
// nil for none. A null element breaks the rule that the format has an
// object there, named by what; with what empty, read reads the null.
func objects[T any](d *decoder, stack *[]T, what string, read func() (T, error)) ([]T, error) {
	if d.null() {
		return nil, nil
	}
	start := len(*stack)
	err := d.elems(func() error {
		var t T
		var err error
		if what != "" && d.null() {
			err = d.semantic(errNull(what))
		} else {
			t, err = read()
		}
		*stack = append(*stack, t)
		return err
	})
	return pop(stack, start), err
}

func (d *decoder) frame() (f Frame, err error) {
	last := -1
	err = d.members(frameKeys, func(k int) error {
		switch k {
		case 0:
			return d.cached(&f.Name, &d.strs)
		case 1:
			return d.intInto(&f.Depth)
		case 2:
			return d.cached(&f.File, &d.strs)
		case 3:
			return d.intInto(&f.Line)
		case 4:
			return d.uintInto(&f.PC)
		}
		if d.outOfOrder(&last, k) {
			return errRetry
		}
		var err error
		f.Vars, err = d.variables()
		return err
	})
	return f, err
}

// variables reads a frame's or the globals' variables, nil for none.
func (d *decoder) variables() ([]*Variable, error) {
	slots, err := objects(d, &d.vars, "variable", func() (v Variable, err error) {
		err = d.named(&v.Name, &v.Value)
		return v, err
	})
	if len(slots) == 0 {
		return nil, err
	}
	vars := make([]*Variable, len(slots))
	for i := range slots {
		vars[i] = &slots[i]
	}
	return vars, err
}

// named reads a variable or a struct field.
func (d *decoder) named(name *string, val **Value) error {
	if d.mode == fast && d.depth < maxDepth {
		// The object as the encoder writes it.
		start := d.off
		if d.lit(`{"name":`) && d.cached(name, &d.strs) == nil && d.lit(`,"value":`) {
			d.depth++
			var err error
			if *val, err = d.value(); err != nil || d.lit("}") {
				d.depth--
				return err
			}
			return errRetry
		}
		d.off = start
	}
	last := -1
	return d.members(namedKeys, func(k int) error {
		if k == 0 {
			return d.cached(name, &d.strs)
		}
		if d.outOfOrder(&last, k) {
			return errRetry
		}
		var err error
		*val, err = d.value()
		return err
	})
}

// value reads a value object, or null, and returns the value it stands for:
// a new one, the one its backref names, or nil for null.
func (d *decoder) value() (*Value, error) {
	if d.null() {
		return nil, nil
	}
	var (
		id, backref          int
		kind, loc, ltype, fn string
		addr                 uint64
		prim                 any
		primErr              = errNoPayload
		v                    *Value
		content              any
	)
	if d.mode == fast && d.depth < maxDepth {
		// A backref as the encoder writes it.
		start := d.off
		if d.lit(`{"backref":`) && d.intInto(&backref) == nil && d.lit("}") {
			if t := d.lookup(backref); t != nil {
				return t, nil
			}
			return nil, errRetry
		}
		d.off, backref = start, 0
	}
	set := func(k int) error {
		switch k {
		case keyID, keyBackref, keyKind:
			if v != nil && d.mode == fast {
				return errRetry // the content was read before what governs it
			}
			switch k {
			case keyID:
				return d.intInto(&id)
			case keyBackref:
				return d.intInto(&backref)
			}
			return d.name(&kind, kindWords)
		case keyLocation:
			return d.name(&loc, locationWords)
		case keyAddress:
			return d.uintInto(&addr)
		case keyLtype:
			return d.cached(&ltype, &d.ltypes)
		case keyPrim:
			var err error
			prim, primErr, err = d.prim()
			return err
		case keyFunc:
			return d.cached(&fn, &d.strs)
		}
		// The content: only a value that is not a backref reads the one
		// its kind names, and registers itself first.
		if d.mode != check {
			t, err := ParseAbstractType(kind)
			if err != nil || backref != 0 || v != nil || contentKey[t] != k {
				if d.mode == tree {
					return nil
				}
				return errRetry
			}
			v = d.newValue(id)
		}
		var err error
		content, err = d.content(k)
		return err
	}
	var err error
	if d.mode == fast && d.header(&id, &kind, &loc, &addr, &ltype) {
		err = d.rest(valueKeys, 1, keyLtype+1, set)
	} else {
		err = d.members(valueKeys, set)
	}
	if err != nil || d.mode == check {
		return nil, err
	}
	if backref != 0 {
		if t := d.lookup(backref); t != nil {
			return t, nil
		}
		return nil, d.semantic(fmt.Errorf("core: dangling backref %d", backref))
	}
	t, err := ParseAbstractType(kind)
	if err != nil {
		return nil, d.semantic(err)
	}
	l := LocNowhere
	if loc != "" {
		if l, err = ParseLocation(loc); err != nil {
			return nil, d.semantic(err)
		}
	}
	if v == nil {
		v = d.newValue(id)
	}
	v.Kind, v.Location, v.Address, v.LanguageType = t, l, addr, ltype
	switch t {
	case Primitive:
		if primErr != nil {
			return nil, d.semantic(primErr)
		}
		v.Content = prim
	case Function:
		v.Content = fn
	case Ref, List, Dict, Struct:
		if content == nil {
			content = emptyContent[t]
		}
		v.Content = content
	}
	return v, nil
}

var errNoPayload = errors.New("core: primitive value without payload")

// header reads the members a value object starts with as the encoder
// writes them: {"id":N,"kind":K,"location":L, then ,"address":N and
// ,"ltype":T when present. It reports false, having read nothing, for any
// other start.
func (d *decoder) header(id *int, kind, loc *string, addr *uint64, ltype *string) bool {
	start := d.off
	ok := d.depth < maxDepth && d.lit(`{"id":`) && d.intInto(id) == nil &&
		d.lit(`,"kind":`) && d.wordInto(kind, kindWords) &&
		d.lit(`,"location":`) && d.wordInto(loc, locationWords)
	if ok && d.lit(`,"address":`) {
		ok = d.uintInto(addr) == nil
	}
	if ok && d.lit(`,"ltype":`) {
		ok = d.cached(ltype, &d.ltypes) == nil
	}
	if !ok {
		d.off = start
		return false
	}
	d.depth++
	return true
}

// wordInto reads one of w's names into *dst if one comes next.
func (d *decoder) wordInto(dst *string, w *words) bool {
	k := d.word(w, 0)
	if k >= 0 {
		*dst = w.names[k]
	}
	return k >= 0
}

// content reads the member k of a value that holds its content: ref, list,
// dict or struct. It returns nil for an empty or null container.
func (d *decoder) content(k int) (any, error) {
	switch k {
	case keyRef:
		return d.value()
	case keyList:
		return nonEmpty(objects(d, &d.vals, "", d.value))
	case keyDict:
		return nonEmpty(objects(d, &d.entries, "dict entry", d.entry))
	}
	return nonEmpty(objects(d, &d.fields, "struct field", func() (f Field, err error) {
		err = d.named(&f.Name, &f.Value)
		return f, err
	}))
}

func nonEmpty[T any](s []T, err error) (any, error) {
	if len(s) == 0 {
		return nil, err
	}
	return s, err
}

func (d *decoder) entry() (e DictEntry, err error) {
	if d.mode == fast && d.depth < maxDepth && d.lit(`{"k":`) {
		// The entry as the encoder writes it.
		d.depth++
		if e.Key, err = d.value(); err != nil {
			return e, err
		}
		if d.lit(`,"v":`) {
			if e.Val, err = d.value(); err != nil || d.lit("}") {
				d.depth--
				return e, err
			}
		}
		return e, errRetry
	}
	last := -1
	err = d.members(pairKeys, func(k int) error {
		if d.outOfOrder(&last, k) {
			return errRetry
		}
		var err error
		if k == 0 {
			e.Key, err = d.value()
		} else {
			e.Val, err = d.value()
		}
		return err
	})
	return e, err
}

// prim reads a primitive's payload, {"t":type,"v":text}, and returns the
// Content it stands for, or in bad why it stands for none, which matters
// only to a value of kind Primitive.
func (d *decoder) prim() (content any, bad, err error) {
	if d.null() {
		return nil, errNoPayload, nil
	}
	var t string
	if d.mode == fast && d.depth < maxDepth {
		// The payload as the encoder writes it.
		start := d.off
		if d.lit(`{"t":`) && d.wordInto(&t, primTypes) && d.lit(`,"v":`) {
			if b, err := d.strBytes(); err == nil && d.lit("}") {
				content, bad = convertPrim(t, b)
				return content, bad, nil
			}
		}
		d.off, t = start, ""
	}
	text := -1 // where the text's literal is
	err = d.members(primKeys, func(k int) error {
		if k == 0 {
			return d.name(&t, primTypes)
		}
		if text = -1; d.null() {
			return nil
		}
		text = d.off
		_, err := d.strBytes()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var b []byte
	if end := d.off; text >= 0 {
		d.off = text
		b, _ = d.strBytes()
		d.off = end
	}
	content, bad = convertPrim(t, b)
	return content, bad, nil
}

// convertPrim converts the text of a primitive of type t.
func convertPrim(t string, text []byte) (any, error) {
	switch t {
	case "int":
		n, err := strconv.ParseInt(string(text), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad int payload %q: %v", text, err)
		}
		return n, nil
	case "float":
		f, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad float payload %q: %v", text, err)
		}
		return f, nil
	case "bool":
		b, err := strconv.ParseBool(string(text))
		if err != nil {
			return nil, fmt.Errorf("core: bad bool payload %q: %v", text, err)
		}
		return b, nil
	case "str":
		return string(text), nil
	}
	return nil, fmt.Errorf("core: unknown primitive type %q", t)
}

// pause reads a pause reason; present is false for null.
func (d *decoder) pause() (r PauseReason, present bool, err error) {
	if d.null() {
		return r, false, nil
	}
	var typ string
	last := -1
	err = d.members(pauseKeys, func(k int) error {
		switch k {
		case 0:
			return d.name(&typ, pauseWords)
		case 1:
			return d.cached(&r.Function, &d.strs)
		case 2:
			return d.cached(&r.File, &d.strs)
		case 3:
			return d.intInto(&r.Line)
		case 4:
			return d.cached(&r.Variable, &d.strs)
		case 8:
			return d.intInto(&r.ExitCode)
		case 9:
			return d.cached(&r.Detail, &d.strs)
		}
		if d.outOfOrder(&last, k) {
			return errRetry
		}
		var err error
		switch k {
		case 5:
			r.Old, err = d.value()
		case 6:
			r.New, err = d.value()
		default:
			r.ReturnValue, err = d.value()
		}
		return err
	})
	if err == nil {
		if r.Type, err = ParsePauseReasonType(typ); err != nil {
			err = d.semantic(err)
		}
	}
	return r, true, err
}
