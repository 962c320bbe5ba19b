package remote

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"easytracker/internal/core"
)

// The envelope codec: the JSON bodies of Request, Response and Status
// without reflection.
//
// appendRequest and appendResponse write exactly the bytes json.Marshal
// writes for the same value: members in struct order, empty ones omitted,
// strings escaped by core's escaper. The members only a handshake, a load,
// an error or an inspection reply carries, which nest other packages'
// types (a LoadSpec, an error, a capability set, a VarChange, source
// lines, registers, memory, segments, heap blocks), are marshalled by
// encoding/json in place.
//
// unmarshalRequest and unmarshalResponse read, in one pass, the bodies this
// encoder writes for the frames a session exchanges at every pause: any
// request but a load, and a response carrying an id and a Status. Any
// other body, or one that strays from that form by a byte (whitespace,
// another member order, an escape in a key, a number that is not a plain
// integer, invalid UTF-8), goes to json.Unmarshal, so every body decodes
// to what json.Unmarshal makes of it and fails where it fails.

// envEncoder appends one envelope to b; err keeps the first failure of a
// member marshalled by encoding/json.
type envEncoder struct {
	b   []byte
	err error
}

func (e *envEncoder) str(key, s string) {
	if s != "" {
		e.b = core.AppendJSONString(append(e.b, key...), s)
	}
}

func (e *envEncoder) int(key string, n int64) {
	if n != 0 {
		e.b = strconv.AppendInt(append(e.b, key...), n, 10)
	}
}

func (e *envEncoder) uint(key string, n uint64) {
	if n != 0 {
		e.b = strconv.AppendUint(append(e.b, key...), n, 10)
	}
}

func (e *envEncoder) bool(key string, v bool) {
	if v {
		e.b = append(append(e.b, key...), "true"...)
	}
}

// marshal appends key and json.Marshal's bytes for v.
func (e *envEncoder) marshal(key string, v any) {
	js, err := json.Marshal(v)
	if err != nil {
		e.err = err
		return
	}
	e.b = append(append(e.b, key...), js...)
}

// raw appends key and raw as json.Marshal writes a RawMessage: compacted
// and HTML-escaped, which the codecs' own documents already are.
func (e *envEncoder) raw(key string, raw json.RawMessage) {
	switch {
	case len(raw) == 0:
	case compactJSON(raw):
		e.b = append(append(e.b, key...), raw...)
	default:
		e.marshal(key, raw)
	}
}

// compactJSON reports whether raw is a JSON value that json.Marshal copies
// unchanged: valid, with no whitespace outside strings and no '<', '>',
// '&', U+2028 or U+2029 anywhere.
func compactJSON(raw []byte) bool {
	inStr := false
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '<' || c == '>' || c == '&':
			return false
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			return false
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			return false
		}
	}
	return json.Valid(raw)
}

// appendRequest appends the JSON body of r.
func appendRequest(b []byte, r *Request) ([]byte, error) {
	e := envEncoder{b: strconv.AppendUint(append(b, `{"id":`...), r.ID, 10)}
	e.b = core.AppendJSONString(append(e.b, `,"op":`...), r.Op)
	e.str(`,"kind":`, r.Kind)
	e.str(`,"path":`, r.Path)
	if r.Load != nil {
		e.marshal(`,"load":`, r.Load)
	}
	e.str(`,"file":`, r.File)
	e.int(`,"line":`, int64(r.Line))
	e.str(`,"func":`, r.Func)
	e.str(`,"var":`, r.Var)
	e.int(`,"max_depth":`, int64(r.MaxDepth))
	e.uint(`,"addr":`, r.Addr)
	e.int(`,"size":`, int64(r.Size))
	e.str(`,"cond":`, r.Cond)
	e.int(`,"ignore":`, int64(r.Ignore))
	e.bool(`,"one_shot":`, r.OneShot)
	e.int(`,"step":`, int64(r.Step))
	e.bool(`,"want_state":`, r.WantState)
	return append(e.b, '}'), e.err
}

// appendResponse appends the JSON body of r; its State is the frame's
// tail, never part of the body.
func appendResponse(b []byte, r *Response) ([]byte, error) {
	e := envEncoder{b: strconv.AppendUint(append(b, `{"id":`...), r.ID, 10)}
	if r.Err != nil {
		e.marshal(`,"err":`, r.Err)
	}
	if r.Status != nil {
		e.b = append(e.b, `,"status":`...)
		e.status(r.Status)
	}
	e.uint(`,"session":`, r.Session)
	e.str(`,"kind":`, r.Kind)
	if r.Caps != nil {
		e.marshal(`,"caps":`, r.Caps)
	}
	e.int(`,"hb_ns":`, r.HBNs)
	e.int(`,"hb_miss":`, int64(r.HBMiss))
	if r.Change != nil {
		e.marshal(`,"change":`, r.Change)
	}
	if len(r.Lines) > 0 {
		e.marshal(`,"lines":`, r.Lines)
	}
	e.raw(`,"stats":`, r.Stats)
	if len(r.Regs) > 0 {
		e.marshal(`,"regs":`, r.Regs)
	}
	if len(r.Mem) > 0 {
		e.marshal(`,"mem":`, r.Mem)
	}
	if len(r.Segs) > 0 {
		e.marshal(`,"segs":`, r.Segs)
	}
	if len(r.Heap) > 0 {
		e.marshal(`,"heap":`, r.Heap)
	}
	return append(e.b, '}'), e.err
}

// status appends s's object. Every member is optional, so each is written
// after a comma and the first comma becomes the opening brace.
func (e *envEncoder) status(s *Status) {
	start := len(e.b)
	e.raw(`,"reason":`, s.Reason)
	e.bool(`,"exited":`, s.Exited)
	e.int(`,"exit_code":`, int64(s.ExitCode))
	e.str(`,"file":`, s.File)
	e.int(`,"line":`, int64(s.Line))
	e.int(`,"last_line":`, int64(s.LastLine))
	e.str(`,"stdout":`, s.Stdout)
	e.str(`,"stderr":`, s.Stderr)
	e.int(`,"tt_pos":`, int64(s.TTPos))
	e.int(`,"tt_len":`, int64(s.TTLen))
	if len(e.b) == start {
		e.b = append(e.b, '{')
	} else {
		e.b[start] = '{'
	}
	e.b = append(e.b, '}')
}

// unmarshalRequest decodes one request body into r, which must be zero.
func unmarshalRequest(body []byte, r *Request) error {
	d := envDecoder{b: body}
	if d.request(r) {
		return nil
	}
	*r = Request{}
	return json.Unmarshal(body, r)
}

// unmarshalResponse decodes one response body into r, which must be zero.
// The Status's pause reason may alias body.
func unmarshalResponse(body []byte, r *Response) error {
	d := envDecoder{b: body}
	if d.response(r) {
		return nil
	}
	*r = Response{}
	return json.Unmarshal(body, r)
}

// envDecoder reads one body in the form envEncoder writes it. Each method
// reports false at the first byte that leaves that form, and the caller
// then hands the whole body to json.Unmarshal.
type envDecoder struct {
	b []byte
	i int
}

func (d *envDecoder) request(r *Request) bool {
	var ok bool
	if !d.lit(`{"id":`) {
		return false
	}
	if r.ID, ok = d.uint(); !ok || !d.lit(`,"op":`) {
		return false
	}
	if r.Op, ok = d.op(); !ok {
		return false
	}
	return d.members(true, []member{{"kind", &r.Kind}, {"path", &r.Path}, {"file", &r.File},
		{"line", &r.Line}, {"func", &r.Func}, {"var", &r.Var}, {"max_depth", &r.MaxDepth},
		{"addr", &r.Addr}, {"size", &r.Size}, {"cond", &r.Cond}, {"ignore", &r.Ignore},
		{"one_shot", &r.OneShot}, {"step", &r.Step}, {"want_state", &r.WantState}}) && d.end()
}

func (d *envDecoder) response(r *Response) bool {
	var ok bool
	if !d.lit(`{"id":`) {
		return false
	}
	if r.ID, ok = d.uint(); !ok {
		return false
	}
	if d.lit(`,"status":`) {
		r.Status = &Status{}
		if !d.status(r.Status) {
			return false
		}
	}
	return d.end()
}

func (d *envDecoder) status(s *Status) bool {
	return d.lit("{}") || d.lit("{") && d.members(false, []member{{"reason", &s.Reason},
		{"exited", &s.Exited}, {"exit_code", &s.ExitCode}, {"file", &s.File}, {"line", &s.Line},
		{"last_line", &s.LastLine}, {"stdout", &s.Stdout}, {"stderr", &s.Stderr},
		{"tt_pos", &s.TTPos}, {"tt_len", &s.TTLen}}) && d.lit("}")
}

// member is one member the decoder reads: its key, and where its value
// goes, a *string, *int, *uint64, *bool or *json.RawMessage (an object).
type member struct {
	key string
	dst any
}

// members reads "key":value members separated by commas, the first one
// preceded by a comma when comma is set, with keys drawn from ms in its
// order and each at most once. It stops before the first byte that starts
// no further member.
func (d *envDecoder) members(comma bool, ms []member) bool {
	next := 0
	for !comma || d.lit(",") {
		comma = true
		if !d.lit(`"`) {
			return false
		}
		end := bytes.IndexByte(d.b[d.i:], '"')
		if end < 0 {
			return false
		}
		key := d.b[d.i : d.i+end]
		d.i += end + 1
		for next < len(ms) && ms[next].key != string(key) {
			next++
		}
		if next == len(ms) || !d.lit(":") || !d.value(ms[next].dst) {
			return false
		}
		next++
	}
	return true
}

func (d *envDecoder) value(dst any) (ok bool) {
	switch p := dst.(type) {
	case *string:
		*p, ok = d.str()
	case *int:
		*p, ok = d.int()
	case *uint64:
		*p, ok = d.uint()
	case *bool:
		*p, ok = d.bool()
	case *json.RawMessage:
		*p, ok = d.object()
	}
	return ok
}

func (d *envDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// end reports whether the body's closing brace is its last byte.
func (d *envDecoder) end() bool { return d.lit("}") && d.i == len(d.b) }

func (d *envDecoder) bool() (bool, bool) {
	if d.lit("true") {
		return true, true
	}
	return false, d.lit("false")
}

// uint reads a non-negative integer without leading zeros that fits in 64
// bits. A fraction or exponent after it leaves the form at the caller's
// next byte.
func (d *envDecoder) uint() (uint64, bool) {
	start := d.i
	var n uint64
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		c := uint64(d.b[d.i] - '0')
		if n > (math.MaxUint64-c)/10 {
			return 0, false
		}
		n = n*10 + c
	}
	digits := d.i - start
	return n, digits == 1 || digits > 1 && d.b[start] != '0'
}

func (d *envDecoder) int() (int, bool) {
	neg := d.lit("-")
	n, ok := d.uint()
	if !ok || n > math.MaxInt {
		return 0, false
	}
	if neg {
		return -int(n), true
	}
	return int(n), true
}

// wireOps are the op names a request decodes to without a copy.
var wireOps = []string{OpHello, OpLoad, OpTerminate, OpStart, OpResume, OpStep, OpNext,
	OpBreakLine, OpBreakFunc, OpTrack, OpWatch, OpSubscribe, OpState, OpSource, OpStats,
	OpRegs, OpReadMem, OpSegments, OpHeap, OpStepBack, OpResumeBack, OpNextBack, OpSeek,
	OpLastChange, OpInterrupt, OpPing}

// op reads a request's op, sharing the constant's string when it names one.
func (d *envDecoder) op() (string, bool) {
	raw, escaped, ok := d.quoted()
	if ok && !escaped {
		for _, op := range wireOps {
			if string(raw) == op {
				return op, true
			}
		}
	}
	return text(raw, escaped, ok)
}

// str reads a string and returns a copy of its value: the body's buffer is
// reused once the frame is decoded.
func (d *envDecoder) str() (string, bool) {
	return text(d.quoted())
}

// text is the value of a string whose contents quoted read.
func text(raw []byte, escaped, ok bool) (string, bool) {
	switch {
	case !ok:
		return "", false
	case escaped:
		return unescape(raw)
	default:
		return string(raw), true
	}
}

// quoted reads a string literal and returns its contents, aliasing the
// body, and whether they hold an escape. It takes only valid UTF-8.
func (d *envDecoder) quoted() (raw []byte, escaped, ok bool) {
	if !d.lit(`"`) {
		return nil, false, false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			raw = d.b[start:d.i]
			d.i++
			return raw, escaped, ascii || utf8.Valid(raw)
		case c == '\\':
			escaped = true
			d.i++
		case c < ' ':
			return nil, false, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, false
}

// unescape decodes the escapes of a string's contents as encoding/json
// does, except a UTF-16 surrogate, which it leaves to encoding/json.
func unescape(raw []byte) (string, bool) {
	var sb strings.Builder
	sb.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		switch c = raw[i]; c {
		case '"', '\\', '/':
			sb.WriteByte(c)
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			if len(raw)-i < 5 {
				return "", false
			}
			r, err := strconv.ParseUint(string(raw[i+1:i+5]), 16, 16)
			if err != nil || utf16.IsSurrogate(rune(r)) {
				return "", false
			}
			sb.WriteRune(rune(r))
			i += 4
		default:
			return "", false
		}
	}
	return sb.String(), true
}

// object reads an object and returns its bytes, aliasing the body.
func (d *envDecoder) object() (json.RawMessage, bool) {
	if d.i == len(d.b) || d.b[d.i] != '{' {
		return nil, false
	}
	depth := 0
	for i := d.i; i < len(d.b); i++ {
		switch d.b[i] {
		case '"':
			for i++; i < len(d.b) && d.b[i] != '"'; i++ {
				if d.b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				raw := d.b[d.i : i+1 : i+1]
				if !json.Valid(raw) {
					return nil, false
				}
				d.i = i + 1
				return raw, true
			}
		}
	}
	return nil, false
}
