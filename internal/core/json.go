package core

import (
	"fmt"
	"strconv"
)

// The wire format preserves sharing and cycles in the value graph: the first
// time a *Value is encountered it is emitted in full with a fresh "id"; every
// later occurrence is emitted as {"backref": id}. This mirrors what the paper
// obtains from Python pickling across the GDB pipe (Section II-C1) and is
// what flows over our MI connection.
//
// The structs below define the format. The encoder in json_encode.go writes
// the bytes encoding/json would write for them, straight from the value
// graph; the parser in json_parse.go fills them from a document, and the
// walk below turns them back into a value graph.

type jsonValue struct {
	ID      int             `json:"id,omitempty"`
	Backref int             `json:"backref,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	Loc     string          `json:"location,omitempty"`
	Addr    uint64          `json:"address,omitempty"`
	LType   string          `json:"ltype,omitempty"`
	Prim    *jsonPrim       `json:"prim,omitempty"`
	Ref     *jsonValue      `json:"ref,omitempty"`
	List    []*jsonValue    `json:"list,omitempty"`
	Dict    []*jsonDictPair `json:"dict,omitempty"`
	Struct  []*jsonField    `json:"struct,omitempty"`
	Func    string          `json:"func,omitempty"`
}

type jsonPrim struct {
	Type  string `json:"t"`
	Value string `json:"v"`
}

type jsonDictPair struct {
	Key *jsonValue `json:"k"`
	Val *jsonValue `json:"v"`
}

type jsonField struct {
	Name  string     `json:"name"`
	Value *jsonValue `json:"value"`
}

type jsonVariable struct {
	Name  string     `json:"name"`
	Value *jsonValue `json:"value"`
}

type jsonFrame struct {
	Name  string          `json:"name"`
	Depth int             `json:"depth"`
	File  string          `json:"file,omitempty"`
	Line  int             `json:"line,omitempty"`
	PC    uint64          `json:"pc,omitempty"`
	Vars  []*jsonVariable `json:"vars,omitempty"`
}

type jsonPause struct {
	Type     string     `json:"type"`
	Function string     `json:"function,omitempty"`
	File     string     `json:"file,omitempty"`
	Line     int        `json:"line,omitempty"`
	Variable string     `json:"variable,omitempty"`
	Old      *jsonValue `json:"old,omitempty"`
	New      *jsonValue `json:"new,omitempty"`
	RetVal   *jsonValue `json:"retval,omitempty"`
	ExitCode int        `json:"exit_code,omitempty"`
	Detail   string     `json:"detail,omitempty"`
}

// jsonState bundles a full inspection snapshot (innermost-first frames,
// globals, pause reason) into one document.
type jsonState struct {
	Frames  []*jsonFrame    `json:"frames,omitempty"`
	Globals []*jsonVariable `json:"globals,omitempty"`
	Reason  *jsonPause      `json:"reason,omitempty"`
}

// errNull reports a null where the format requires an object.
func errNull(what string) error {
	return fmt.Errorf("core: null %s", what)
}

type valueDecoder struct {
	byID map[int]*Value
}

func newValueDecoder() *valueDecoder {
	return &valueDecoder{byID: map[int]*Value{}}
}

func (d *valueDecoder) decode(jv *jsonValue) (*Value, error) {
	if jv == nil {
		return nil, nil
	}
	if jv.Backref != 0 {
		v, ok := d.byID[jv.Backref]
		if !ok {
			return nil, fmt.Errorf("core: dangling backref %d", jv.Backref)
		}
		return v, nil
	}
	kind, err := ParseAbstractType(jv.Kind)
	if err != nil {
		return nil, err
	}
	loc := LocNowhere
	if jv.Loc != "" {
		loc, err = ParseLocation(jv.Loc)
		if err != nil {
			return nil, err
		}
	}
	v := &Value{Kind: kind, Location: loc, Address: jv.Addr, LanguageType: jv.LType}
	if jv.ID != 0 {
		d.byID[jv.ID] = v
	}
	switch kind {
	case Primitive:
		if jv.Prim == nil {
			return nil, fmt.Errorf("core: primitive value without payload")
		}
		switch jv.Prim.Type {
		case "int":
			n, err := strconv.ParseInt(jv.Prim.Value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("core: bad int payload %q: %v", jv.Prim.Value, err)
			}
			v.Content = n
		case "float":
			f, err := strconv.ParseFloat(jv.Prim.Value, 64)
			if err != nil {
				return nil, fmt.Errorf("core: bad float payload %q: %v", jv.Prim.Value, err)
			}
			v.Content = f
		case "bool":
			b, err := strconv.ParseBool(jv.Prim.Value)
			if err != nil {
				return nil, fmt.Errorf("core: bad bool payload %q: %v", jv.Prim.Value, err)
			}
			v.Content = b
		case "str":
			v.Content = jv.Prim.Value
		default:
			return nil, fmt.Errorf("core: unknown primitive type %q", jv.Prim.Type)
		}
	case Ref:
		t, err := d.decode(jv.Ref)
		if err != nil {
			return nil, err
		}
		v.Content = t
	case List:
		elems := make([]*Value, len(jv.List))
		for i, je := range jv.List {
			if elems[i], err = d.decode(je); err != nil {
				return nil, err
			}
		}
		v.Content = elems
	case Dict:
		entries := make([]DictEntry, len(jv.Dict))
		for i, jp := range jv.Dict {
			if jp == nil {
				return nil, errNull("dict entry")
			}
			if entries[i].Key, err = d.decode(jp.Key); err != nil {
				return nil, err
			}
			if entries[i].Val, err = d.decode(jp.Val); err != nil {
				return nil, err
			}
		}
		v.Content = entries
	case Struct:
		fields := make([]Field, len(jv.Struct))
		for i, jf := range jv.Struct {
			if jf == nil {
				return nil, errNull("struct field")
			}
			fields[i].Name = jf.Name
			if fields[i].Value, err = d.decode(jf.Value); err != nil {
				return nil, err
			}
		}
		v.Content = fields
	case Function:
		v.Content = jv.Func
	}
	return v, nil
}

// decodeVars decodes a frame's or the globals' variables, nil for none.
func (d *valueDecoder) decodeVars(jvs []*jsonVariable) ([]*Variable, error) {
	if len(jvs) == 0 {
		return nil, nil
	}
	vars := make([]*Variable, len(jvs))
	slots := make([]Variable, len(jvs))
	for i, jv := range jvs {
		if jv == nil {
			return nil, errNull("variable")
		}
		val, err := d.decode(jv.Value)
		if err != nil {
			return nil, err
		}
		slots[i] = Variable{Name: jv.Name, Value: val}
		vars[i] = &slots[i]
	}
	return vars, nil
}

// MarshalJSON encodes the value graph, preserving sharing and cycles. A nil
// value encodes as null.
func (v *Value) MarshalJSON() ([]byte, error) {
	e := getEncoder()
	e.value(v)
	return e.finish(), nil
}

// UnmarshalJSON decodes a value graph produced by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := parseValue(data, &jv); err != nil {
		return err
	}
	return v.fromWire(&jv)
}

// fromWire rebuilds v from its wire form.
func (v *Value) fromWire(jv *jsonValue) error {
	dec, err := newValueDecoder().decode(jv)
	if err != nil {
		return err
	}
	*v = *dec
	// Self-references in the decoded graph point at dec, not v; rebind.
	rebind(v, dec, map[*Value]bool{})
	return nil
}

// rebind replaces pointers to old with pointers to v inside v's graph, so
// that cycles survive the *v = *dec copy in UnmarshalJSON.
func rebind(v, old *Value, seen map[*Value]bool) {
	if v == nil || seen[v] {
		return
	}
	seen[v] = true
	switch v.Kind {
	case Ref:
		if t, _ := v.Content.(*Value); t == old {
			v.Content = v
		} else {
			rebind(t, old, seen)
		}
	case List:
		elems, _ := v.Content.([]*Value)
		for i, el := range elems {
			if el == old {
				elems[i] = v
			} else {
				rebind(el, old, seen)
			}
		}
	case Dict:
		entries, _ := v.Content.([]DictEntry)
		for i := range entries {
			if entries[i].Key == old {
				entries[i].Key = v
			} else {
				rebind(entries[i].Key, old, seen)
			}
			if entries[i].Val == old {
				entries[i].Val = v
			} else {
				rebind(entries[i].Val, old, seen)
			}
		}
	case Struct:
		fields, _ := v.Content.([]Field)
		for i := range fields {
			if fields[i].Value == old {
				fields[i].Value = v
			} else {
				rebind(fields[i].Value, old, seen)
			}
		}
	}
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

// UnmarshalJSON decodes a snapshot produced by MarshalJSON.
func (s *State) UnmarshalJSON(data []byte) error {
	var js jsonState
	if err := parseState(data, &js); err != nil {
		return err
	}
	return s.fromWire(&js)
}

// fromWire rebuilds s from its wire form.
func (s *State) fromWire(js *jsonState) error {
	d := newValueDecoder()
	// Frames were serialized innermost first; decode in the same order so
	// value backrefs resolve, then link the Parent chain.
	frames := make([]*Frame, len(js.Frames))
	for i, jf := range js.Frames {
		if jf == nil {
			return errNull("frame")
		}
		vars, err := d.decodeVars(jf.Vars)
		if err != nil {
			return err
		}
		frames[i] = &Frame{Name: jf.Name, Depth: jf.Depth, File: jf.File, Line: jf.Line, PC: jf.PC, Vars: vars}
	}
	for i := 0; i+1 < len(frames); i++ {
		frames[i].Parent = frames[i+1]
	}
	if len(frames) > 0 {
		s.Frame = frames[0]
	} else {
		s.Frame = nil
	}
	var err error
	if s.Globals, err = d.decodeVars(js.Globals); err != nil {
		return err
	}
	if js.Reason != nil {
		r, err := decodePause(d, js.Reason)
		if err != nil {
			return err
		}
		s.Reason = r
	} else {
		s.Reason = PauseReason{}
	}
	return nil
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
	arr, err := parseValueList(data)
	if err != nil {
		return err
	}
	return l.fromWire(arr)
}

// fromWire rebuilds l from its wire form.
func (l *ValueList) fromWire(arr []*jsonValue) error {
	d := newValueDecoder()
	out := make(ValueList, len(arr))
	for i, jv := range arr {
		v, err := d.decode(jv)
		if err != nil {
			return err
		}
		out[i] = v
	}
	*l = out
	return nil
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
	var jp jsonPause
	if err := parsePause(data, &jp); err != nil {
		return PauseReason{}, err
	}
	return decodePause(newValueDecoder(), &jp)
}

func decodePause(d *valueDecoder, jp *jsonPause) (PauseReason, error) {
	t, err := ParsePauseReasonType(jp.Type)
	if err != nil {
		return PauseReason{}, err
	}
	r := PauseReason{
		Type:     t,
		Function: jp.Function,
		File:     jp.File,
		Line:     jp.Line,
		Variable: jp.Variable,
		ExitCode: jp.ExitCode,
		Detail:   jp.Detail,
	}
	if r.Old, err = d.decode(jp.Old); err != nil {
		return PauseReason{}, err
	}
	if r.New, err = d.decode(jp.New); err != nil {
		return PauseReason{}, err
	}
	if r.ReturnValue, err = d.decode(jp.RetVal); err != nil {
		return PauseReason{}, err
	}
	return r, nil
}
