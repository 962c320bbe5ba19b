package core

import (
	"fmt"
	"unsafe"
)

// The wire format preserves sharing and cycles in the value graph: the first
// time a *Value is encountered it is emitted in full with a fresh "id"; every
// later occurrence is emitted as {"backref": id}. This mirrors what the paper
// obtains from Python pickling across the GDB pipe (Section II-C1) and is
// what flows over our MI connection.
//
// A State document is {"frames":[frame...],"globals":[variable...],
// "reason":pause}, frames innermost first. A frame is {"name","depth",
// "file","line","pc","vars":[variable...]}; a variable, like a struct field,
// is {"name","value"}. A value is {"id","kind","location","address","ltype"}
// plus the content its kind has: "prim":{"t":type,"v":text} with type int,
// float, bool or str (numbers and bools travel as text, so int64 stays
// exact), "ref":value, "list":[value...], "dict":[{"k":value,"v":value}...],
// "struct":[field...] or "func":name. A pause reason is {"type","function",
// "file","line","variable","old","new","retval","exit_code","detail"}. Empty
// and zero members are omitted. These are the objects encoding/json writes
// for the wire structs the codec's tests keep as its reference.
//
// The encoder in json_encode.go writes the bytes straight from the value
// graph; the decoder in json_parse.go reads them straight back into one.

// errNull reports a null where the format requires an object.
func errNull(what string) error {
	return fmt.Errorf("core: null %s", what)
}

// MarshalJSON encodes the value graph, preserving sharing and cycles. A nil
// value encodes as null.
func (v *Value) MarshalJSON() ([]byte, error) {
	e := getEncoder()
	e.value(v)
	return e.finish(), nil
}

// UnmarshalJSON decodes a value graph produced by MarshalJSON. On error v
// is left as it was.
func (v *Value) UnmarshalJSON(data []byte) error {
	saved := *v
	err := decode(data, v, func(d *decoder) error {
		got, err := d.value()
		if err == nil && got == nil {
			_, err = ParseAbstractType("") // null stands for no value
			err = d.semantic(err)
		}
		return err
	})
	if err != nil {
		*v = saved
	}
	return err
}

// State is a complete, serializable inspection snapshot of a paused
// inferior: the call stack (innermost first), the globals, and the pause
// reason. It is the unit transferred across the MI pipe by the MiniGDB
// tracker and the unit recorded per step in PT-style traces.
type State struct {
	Frame   *Frame
	Globals []*Variable
	Reason  PauseReason
}

// MarshalJSON encodes the snapshot with one shared value table, so values
// referenced from several frames or globals keep their identity. A nil
// State encodes as null, as encoding/json writes it.
func (s *State) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	e := getEncoder()
	e.state(s)
	return e.finish(), nil
}

// AppendJSON appends the bytes MarshalJSON returns to dst and returns the
// extended buffer, so a caller that builds a larger message around the
// State encodes it in place instead of copying it there.
func (s *State) AppendJSON(dst []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	e := getEncoder()
	own := e.buf
	e.buf = dst
	e.state(s)
	dst = e.buf
	e.buf = own
	e.release()
	return dst
}

// UnmarshalJSON decodes a snapshot produced by MarshalJSON.
func (s *State) UnmarshalJSON(data []byte) error {
	var st State
	err := decode(data, nil, func(d *decoder) (err error) {
		st, err = d.state()
		return err
	})
	if err == nil {
		*s = st
	}
	return err
}

// UnmarshalJSONString is UnmarshalJSON for a document held in a string, such
// as one sliced out of an MI line. The decoder reads the string in place:
// it never writes to its input and copies out every string it keeps.
func (s *State) UnmarshalJSONString(data string) error {
	return s.UnmarshalJSON(unsafe.Slice(unsafe.StringData(data), len(data)))
}

// ValueList is a group of values serialized with one shared backref table,
// so aliasing and cycles between the members survive the round trip. It is
// the payload unit of delta-encoded traces (pt format v2): all values written
// by one step are encoded together, preserving any sharing among them.
type ValueList []*Value

// MarshalJSON encodes the list with one shared value table.
func (l ValueList) MarshalJSON() ([]byte, error) {
	e := getEncoder()
	e.list(l)
	return e.finish(), nil
}

// UnmarshalJSON decodes a list produced by MarshalJSON. The decoded values
// share one backref table, so aliasing among them is restored.
func (l *ValueList) UnmarshalJSON(data []byte) error {
	var out ValueList
	err := decode(data, nil, func(d *decoder) (err error) {
		out, err = objects(d, &d.vals, "", d.value)
		return err
	})
	if out == nil {
		out = ValueList{} // null and [] give an empty list
	}
	if err == nil {
		*l = out
	}
	return err
}

// EncodePauseReasonJSON encodes a pause reason alone — the unit attached to
// every control-command response on a remote-tracker connection. The value
// graph of Old/New/ReturnValue keeps its sharing through the same backref
// table the State codec uses.
func EncodePauseReasonJSON(r PauseReason) ([]byte, error) {
	e := getEncoder()
	e.pause(&r)
	return e.finish(), nil
}

// DecodePauseReasonJSON decodes a pause reason produced by
// EncodePauseReasonJSON.
func DecodePauseReasonJSON(data []byte) (PauseReason, error) {
	var r PauseReason
	err := decode(data, nil, func(d *decoder) error {
		var present bool
		var err error
		r, present, err = d.pause()
		if err == nil && !present {
			_, err = ParsePauseReasonType("") // null stands for no reason
			err = d.semantic(err)
		}
		return err
	})
	if err != nil {
		return PauseReason{}, err
	}
	return r, nil
}
