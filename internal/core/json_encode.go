package core

import (
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"
)

// encoder appends the wire form of States, Values, ValueLists and pause
// reasons to buf, walking the value graph directly. The first visit of a
// *Value writes it in full under the next id (frames innermost first, then
// globals, then the reason's old/new/retval); a later visit writes
// {"backref":id}. Field order, omitempty rules and string escaping
// reproduce, byte for byte, what encoding/json writes for the wire structs
// in json.go.
type encoder struct {
	buf  []byte
	next int
	ids  map[*Value]int
}

var encoderPool = sync.Pool{New: func() any { return &encoder{ids: map[*Value]int{}} }}

// A pooled encoder keeps its buffer and id map for the next document unless
// one large document grew them past these sizes, so a rare huge State does
// not make every later encode pay for clearing a huge map.
const (
	maxPooledBuf = 64 << 10
	maxPooledIDs = 1 << 12
)

func getEncoder() *encoder { return encoderPool.Get().(*encoder) }

// finish returns a copy of the document that belongs to the caller and puts
// e back in the pool.
func (e *encoder) finish() []byte {
	out := append([]byte(nil), e.buf...)
	e.release()
	return out
}

// release empties e and puts it back in the pool.
func (e *encoder) release() {
	e.buf = e.buf[:0]
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	if len(e.ids) > maxPooledIDs {
		e.ids = map[*Value]int{}
	} else {
		clear(e.ids)
	}
	e.next = 0
	encoderPool.Put(e)
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

func (e *encoder) uint(n uint64) { e.buf = strconv.AppendUint(e.buf, n, 10) }

func (e *encoder) str(s string) { e.buf = AppendJSONString(e.buf, s) }

func (e *encoder) state(s *State) {
	e.raw("{")
	if s.Frame != nil {
		e.raw(`"frames":[`)
		for fr := s.Frame; fr != nil; fr = fr.Parent {
			if fr != s.Frame {
				e.raw(",")
			}
			e.frame(fr)
		}
		e.raw("],")
	}
	if len(s.Globals) > 0 {
		e.raw(`"globals":`)
		e.vars(s.Globals)
		e.raw(",")
	}
	e.raw(`"reason":`)
	e.pause(&s.Reason)
	e.raw("}")
}

func (e *encoder) frame(fr *Frame) {
	e.raw(`{"name":`)
	e.str(fr.Name)
	e.raw(`,"depth":`)
	e.int(fr.Depth)
	if fr.File != "" {
		e.raw(`,"file":`)
		e.str(fr.File)
	}
	if fr.Line != 0 {
		e.raw(`,"line":`)
		e.int(fr.Line)
	}
	if fr.PC != 0 {
		e.raw(`,"pc":`)
		e.uint(fr.PC)
	}
	if len(fr.Vars) > 0 {
		e.raw(`,"vars":`)
		e.vars(fr.Vars)
	}
	e.raw("}")
}

func (e *encoder) vars(vs []*Variable) {
	e.raw("[")
	for i, va := range vs {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"name":`)
		e.str(va.Name)
		e.raw(`,"value":`)
		e.value(va.Value)
		e.raw("}")
	}
	e.raw("]")
}

func (e *encoder) pause(r *PauseReason) {
	e.raw(`{"type":`)
	e.str(r.Type.String())
	if r.Function != "" {
		e.raw(`,"function":`)
		e.str(r.Function)
	}
	if r.File != "" {
		e.raw(`,"file":`)
		e.str(r.File)
	}
	if r.Line != 0 {
		e.raw(`,"line":`)
		e.int(r.Line)
	}
	if r.Variable != "" {
		e.raw(`,"variable":`)
		e.str(r.Variable)
	}
	if r.Old != nil {
		e.raw(`,"old":`)
		e.value(r.Old)
	}
	if r.New != nil {
		e.raw(`,"new":`)
		e.value(r.New)
	}
	if r.ReturnValue != nil {
		e.raw(`,"retval":`)
		e.value(r.ReturnValue)
	}
	if r.ExitCode != 0 {
		e.raw(`,"exit_code":`)
		e.int(r.ExitCode)
	}
	if r.Detail != "" {
		e.raw(`,"detail":`)
		e.str(r.Detail)
	}
	e.raw("}")
}

func (e *encoder) list(l []*Value) {
	e.raw("[")
	for i, v := range l {
		if i > 0 {
			e.raw(",")
		}
		e.value(v)
	}
	e.raw("]")
}

func (e *encoder) value(v *Value) {
	if v == nil {
		e.raw("null")
		return
	}
	if id, seen := e.ids[v]; seen {
		e.raw(`{"backref":`)
		e.int(id)
		e.raw("}")
		return
	}
	e.next++
	e.ids[v] = e.next
	e.raw(`{"id":`)
	e.int(e.next)
	e.raw(`,"kind":`)
	e.str(v.Kind.String())
	e.raw(`,"location":`)
	e.str(v.Location.String())
	if v.Address != 0 {
		e.raw(`,"address":`)
		e.uint(v.Address)
	}
	if v.LanguageType != "" {
		e.raw(`,"ltype":`)
		e.str(v.LanguageType)
	}
	switch v.Kind {
	case Primitive:
		// Numbers and bools travel as strings, so int64 stays exact; their
		// strconv forms need no escaping.
		switch c := v.Content.(type) {
		case int64:
			e.raw(`,"prim":{"t":"int","v":"`)
			e.buf = strconv.AppendInt(e.buf, c, 10)
			e.raw(`"}`)
		case float64:
			e.raw(`,"prim":{"t":"float","v":"`)
			e.buf = strconv.AppendFloat(e.buf, c, 'g', -1, 64)
			e.raw(`"}`)
		case bool:
			e.raw(`,"prim":{"t":"bool","v":"`)
			e.buf = strconv.AppendBool(e.buf, c)
			e.raw(`"}`)
		case string:
			e.raw(`,"prim":{"t":"str","v":`)
			e.str(c)
			e.raw("}")
		default:
			e.raw(`,"prim":{"t":"str","v":`)
			e.str(fmt.Sprint(c))
			e.raw("}")
		}
	case Ref:
		if t := v.Deref(); t != nil {
			e.raw(`,"ref":`)
			e.value(t)
		}
	case List:
		if elems := v.Elems(); len(elems) > 0 {
			e.raw(`,"list":`)
			e.list(elems)
		}
	case Dict:
		if entries := v.Entries(); len(entries) > 0 {
			e.raw(`,"dict":[`)
			for i, en := range entries {
				if i > 0 {
					e.raw(",")
				}
				e.raw(`{"k":`)
				e.value(en.Key)
				e.raw(`,"v":`)
				e.value(en.Val)
				e.raw("}")
			}
			e.raw("]")
		}
	case Struct:
		if fields := v.Fields(); len(fields) > 0 {
			e.raw(`,"struct":[`)
			for i, f := range fields {
				if i > 0 {
					e.raw(",")
				}
				e.raw(`{"name":`)
				e.str(f.Name)
				e.raw(`,"value":`)
				e.value(f.Value)
				e.raw("}")
			}
			e.raw("]")
		}
	case Function:
		if s, _ := v.Content.(string); s != "" {
			e.raw(`,"func":`)
			e.str(s)
		}
	}
	e.raw("}")
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json writes unescaped when it
// escapes HTML: everything from space up except '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendJSONString appends s as a JSON string literal escaped exactly as
// encoding/json escapes it with HTML escaping on: '<', '>' and '&' become
// \u003c, \u003e and \u0026; \b, \f, \n, \r and \t keep their short forms and
// other control bytes become \u00XX; invalid UTF-8 becomes \ufffd; and
// U+2028 and U+2029 are escaped.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
