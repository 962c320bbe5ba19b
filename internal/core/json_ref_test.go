package core

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// The reference codec is the State codec as it was written before the
// append encoder and the single-pass parser: every document is built as a
// tree of the wire structs in json.go and handed to encoding/json, which
// reads and writes it by reflection. Tests hold the product codec to it
// byte for byte.

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
