package core

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// The reference codec is the State codec as it was written before the
// append encoder and the one-pass decoder: every document is built as a tree
// of the wire structs below and handed to encoding/json, which reads and
// writes it by reflection, and a decoded tree is walked into a value graph
// by valueDecoder. Tests hold the product codec to it byte for byte.

// The wire structs define the format: encoding/json writes and reads them.

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

type valueEncoder struct {
	next int
	ids  map[*Value]int
}

func newValueEncoder() *valueEncoder {
	return &valueEncoder{ids: map[*Value]int{}}
}

func (e *valueEncoder) encode(v *Value) *jsonValue {
	if v == nil {
		return nil
	}
	if id, seen := e.ids[v]; seen {
		return &jsonValue{Backref: id}
	}
	e.next++
	id := e.next
	e.ids[v] = id
	jv := &jsonValue{
		ID:    id,
		Kind:  v.Kind.String(),
		Loc:   v.Location.String(),
		Addr:  v.Address,
		LType: v.LanguageType,
	}
	switch v.Kind {
	case Primitive:
		switch c := v.Content.(type) {
		case int64:
			jv.Prim = &jsonPrim{Type: "int", Value: strconv.FormatInt(c, 10)}
		case float64:
			jv.Prim = &jsonPrim{Type: "float", Value: strconv.FormatFloat(c, 'g', -1, 64)}
		case bool:
			jv.Prim = &jsonPrim{Type: "bool", Value: strconv.FormatBool(c)}
		case string:
			jv.Prim = &jsonPrim{Type: "str", Value: c}
		default:
			jv.Prim = &jsonPrim{Type: "str", Value: fmt.Sprint(c)}
		}
	case Ref:
		jv.Ref = e.encode(v.Deref())
	case List:
		elems := v.Elems()
		jv.List = make([]*jsonValue, len(elems))
		for i, el := range elems {
			jv.List[i] = e.encode(el)
		}
	case Dict:
		for _, en := range v.Entries() {
			jv.Dict = append(jv.Dict, &jsonDictPair{Key: e.encode(en.Key), Val: e.encode(en.Val)})
		}
	case Struct:
		for _, f := range v.Fields() {
			jv.Struct = append(jv.Struct, &jsonField{Name: f.Name, Value: e.encode(f.Value)})
		}
	case Function:
		s, _ := v.Content.(string)
		jv.Func = s
	case None, Invalid:
		// no payload
	}
	return jv
}

func (e *valueEncoder) encodePause(r PauseReason) *jsonPause {
	return &jsonPause{
		Type:     r.Type.String(),
		Function: r.Function,
		File:     r.File,
		Line:     r.Line,
		Variable: r.Variable,
		Old:      e.encode(r.Old),
		New:      e.encode(r.New),
		RetVal:   e.encode(r.ReturnValue),
		ExitCode: r.ExitCode,
		Detail:   r.Detail,
	}
}

func refMarshalValue(v *Value) ([]byte, error) {
	return json.Marshal(newValueEncoder().encode(v))
}

func refMarshalState(s *State) ([]byte, error) {
	e := newValueEncoder()
	var js jsonState
	for _, fr := range s.Frame.Stack() {
		jf := &jsonFrame{Name: fr.Name, Depth: fr.Depth, File: fr.File, Line: fr.Line, PC: fr.PC}
		for _, va := range fr.Vars {
			jf.Vars = append(jf.Vars, &jsonVariable{Name: va.Name, Value: e.encode(va.Value)})
		}
		js.Frames = append(js.Frames, jf)
	}
	for _, g := range s.Globals {
		js.Globals = append(js.Globals, &jsonVariable{Name: g.Name, Value: e.encode(g.Value)})
	}
	js.Reason = e.encodePause(s.Reason)
	return json.Marshal(&js)
}

func refMarshalList(l ValueList) ([]byte, error) {
	e := newValueEncoder()
	arr := make([]*jsonValue, len(l))
	for i, v := range l {
		arr[i] = e.encode(v)
	}
	return json.Marshal(arr)
}

func refEncodePause(r PauseReason) ([]byte, error) {
	return json.Marshal(newValueEncoder().encodePause(r))
}

func refUnmarshalValue(data []byte, v *Value) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	return v.fromWire(&jv)
}

func refUnmarshalState(data []byte, s *State) error {
	var js jsonState
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	return s.fromWire(&js)
}

func refUnmarshalList(data []byte, l *ValueList) error {
	var arr []*jsonValue
	if err := json.Unmarshal(data, &arr); err != nil {
		return err
	}
	return l.fromWire(arr)
}

func refDecodePause(data []byte) (PauseReason, error) {
	var jp jsonPause
	if err := json.Unmarshal(data, &jp); err != nil {
		return PauseReason{}, err
	}
	return decodePause(newValueDecoder(), &jp)
}
