package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripValue(t *testing.T, v *Value) *Value {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Value
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	return &back
}

func TestJSONRoundTripPrimitives(t *testing.T) {
	vals := []*Value{
		NewInt(0), NewInt(-1), NewInt(1<<62 + 12345), // beyond float64 precision
		NewFloat(0.1), NewFloat(-1e300),
		NewBool(true), NewBool(false),
		NewString(""), NewString("héllo\n\"quoted\""),
		NewNone(), NewInvalid(), NewFunction("fib"),
	}
	for _, v := range vals {
		v.Location = LocHeap
		v.Address = 0xbeef
		v.LanguageType = "T"
		if back := roundTripValue(t, v); !v.Equal(back) {
			t.Errorf("round trip %s != %s", v, back)
		}
	}
}

func TestJSONRoundTripInt64Exact(t *testing.T) {
	// 2^63-1 cannot survive a float64 detour; the string encoding must
	// keep it exact.
	v := NewInt(9223372036854775807)
	back := roundTripValue(t, v)
	if got, _ := back.Int(); got != 9223372036854775807 {
		t.Errorf("int64 round trip lost precision: %d", got)
	}
}

func TestJSONRoundTripComposites(t *testing.T) {
	v := NewStruct(
		Field{"xs", NewList(NewInt(1), NewRef(NewString("deep")))},
		Field{"m", NewDict(DictEntry{NewString("k"), NewNone()})},
	)
	v.LanguageType = "box"
	back := roundTripValue(t, v)
	if !v.Equal(back) {
		t.Errorf("round trip %s != %s", v, back)
	}
}

func TestJSONPreservesSharing(t *testing.T) {
	shared := NewList(NewInt(7))
	v := NewList(NewRef(shared), NewRef(shared))
	back := roundTripValue(t, v)
	e := back.Elems()
	if e[0].Deref() != e[1].Deref() {
		t.Error("sharing lost: two refs decode to distinct targets")
	}
	e[0].Deref().Content = append(e[0].Deref().Elems(), NewInt(8))
	if len(e[1].Deref().Elems()) != 2 {
		t.Error("decoded targets are not aliased")
	}
}

func TestJSONPreservesCycles(t *testing.T) {
	l := NewList(NewInt(1))
	l.Content = append(l.Elems(), l) // l = [1, l]
	back := roundTripValue(t, l)
	e := back.Elems()
	if len(e) != 2 {
		t.Fatalf("len = %d", len(e))
	}
	if e[1] != back {
		t.Error("cycle lost: second element is not the list itself")
	}
	if !back.Equal(l) {
		t.Error("cyclic round trip not Equal")
	}
}

func TestJSONSelfRef(t *testing.T) {
	r := &Value{Kind: Ref}
	r.Content = r // r = &r
	back := roundTripValue(t, r)
	if back.Deref() != back {
		t.Error("self-referential ref lost identity")
	}
}

func TestJSONDanglingBackref(t *testing.T) {
	var v Value
	err := json.Unmarshal([]byte(`{"backref": 99}`), &v)
	if err == nil || !strings.Contains(err.Error(), "backref") {
		t.Errorf("expected dangling backref error, got %v", err)
	}
}

func TestJSONBadPayloads(t *testing.T) {
	cases := []string{
		`{"id":1,"kind":"WHAT"}`,
		`{"id":1,"kind":"PRIMITIVE"}`,
		`{"id":1,"kind":"PRIMITIVE","prim":{"t":"int","v":"abc"}}`,
		`{"id":1,"kind":"PRIMITIVE","prim":{"t":"float","v":"zz"}}`,
		`{"id":1,"kind":"PRIMITIVE","prim":{"t":"bool","v":"maybe"}}`,
		`{"id":1,"kind":"PRIMITIVE","prim":{"t":"complex","v":"1i"}}`,
		`{"id":1,"kind":"PRIMITIVE","location":"MOON","prim":{"t":"int","v":"1"}}`,
	}
	for _, c := range cases {
		var v Value
		if err := json.Unmarshal([]byte(c), &v); err == nil {
			t.Errorf("decode of %s succeeded", c)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	shared := NewList(NewInt(5))
	shared.Location = LocHeap
	inner := &Frame{
		Name: "fib", Depth: 1, File: "prog.py", Line: 3,
		Vars: []*Variable{{Name: "n", Value: NewRef(shared)}},
	}
	outer := &Frame{
		Name: "main", Depth: 0, File: "prog.py", Line: 9,
		Vars: []*Variable{{Name: "xs", Value: NewRef(shared)}},
	}
	inner.Parent = outer
	st := &State{
		Frame:   inner,
		Globals: []*Variable{{Name: "G", Value: NewInt(1)}},
		Reason: PauseReason{
			Type: PauseWatch, Variable: "fib:n",
			Old: NewInt(1), New: NewInt(2),
			File: "prog.py", Line: 3,
		},
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back State
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !back.Frame.Equal(st.Frame) {
		t.Errorf("frames differ:\n%s\n%s", back.Frame.Backtrace(), st.Frame.Backtrace())
	}
	if len(back.Globals) != 1 || back.Globals[0].Name != "G" {
		t.Errorf("globals differ: %v", back.Globals)
	}
	if back.Reason.Type != PauseWatch || back.Reason.Variable != "fib:n" {
		t.Errorf("reason differs: %v", back.Reason)
	}
	// Sharing across frames must survive.
	bi := back.Frame.Lookup("n").Value.Deref()
	bo := back.Frame.Parent.Lookup("xs").Value.Deref()
	if bi != bo {
		t.Error("cross-frame sharing lost")
	}
}

func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(g valueGen) bool {
		data, err := json.Marshal(g.V)
		if err != nil {
			return false
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return g.V.Equal(&back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickJSONDeterministic(t *testing.T) {
	f := func(g valueGen) bool {
		a, err1 := json.Marshal(g.V)
		b, err2 := json.Marshal(g.V)
		return err1 == nil && err2 == nil && string(a) == string(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickJSONMatchesReference holds the encoder to the reference encoder,
// byte for byte, on random graphs with wide strings and floats: a Value, a
// ValueList of the graph's composites, a pause reason and a State that
// reach the same values from two frames, the globals and the reason.
func TestQuickJSONMatchesReference(t *testing.T) {
	f := func(g wideValueGen) bool {
		v, pool := g.V, g.Pool
		vars := func(vs ...*Value) []*Variable {
			var out []*Variable
			for i, x := range vs {
				out = append(out, &Variable{Name: "v" + strings.Repeat("<", i), Value: x})
			}
			return out
		}
		pick := func(i int) *Value {
			if len(pool) == 0 {
				return nil
			}
			return pool[i%len(pool)]
		}
		outer := &Frame{Name: "main", File: "a&b.py", Line: 9, PC: 0x40, Vars: vars(pick(1), v)}
		inner := &Frame{Name: "f\u2028", Depth: 1, Vars: vars(v, pick(0)), Parent: outer}
		r := PauseReason{Type: PauseReturn, Function: "f", Variable: "x", Old: pick(2), New: v, ReturnValue: pick(3), ExitCode: -1, Detail: "d"}
		st := &State{Frame: inner, Globals: vars(pick(4), v), Reason: r}
		check := func(name string, got []byte, gotErr error, want []byte, wantErr error) bool {
			if gotErr != nil || wantErr != nil || !bytes.Equal(got, want) {
				t.Logf("%s: got %s (%v)\nwant %s (%v)", name, got, gotErr, want, wantErr)
				return false
			}
			return true
		}
		gv, err1 := v.MarshalJSON()
		wv, err2 := refMarshalValue(v)
		gl, err3 := ValueList(pool).MarshalJSON()
		wl, err4 := refMarshalList(pool)
		gp, err5 := EncodePauseReasonJSON(r)
		wp, err6 := refEncodePause(r)
		gs, err7 := st.MarshalJSON()
		ws, err8 := refMarshalState(st)
		return check("Value", gv, err1, wv, err2) &&
			check("ValueList", gl, err3, wl, err4) &&
			check("PauseReason", gp, err5, wp, err6) &&
			check("State", gs, err7, ws, err8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
