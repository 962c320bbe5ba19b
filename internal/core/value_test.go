package core

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAbstractTypeNames(t *testing.T) {
	cases := []struct {
		at   AbstractType
		name string
	}{
		{Primitive, "PRIMITIVE"},
		{Ref, "REF"},
		{List, "LIST"},
		{Dict, "DICT"},
		{Struct, "STRUCT"},
		{None, "NONE"},
		{Invalid, "INVALID"},
		{Function, "FUNCTION"},
	}
	for _, c := range cases {
		if got := c.at.String(); got != c.name {
			t.Errorf("%d.String() = %q, want %q", c.at, got, c.name)
		}
		back, err := ParseAbstractType(c.name)
		if err != nil || back != c.at {
			t.Errorf("ParseAbstractType(%q) = %v, %v; want %v", c.name, back, err, c.at)
		}
	}
	if _, err := ParseAbstractType("NOPE"); err == nil {
		t.Error("ParseAbstractType accepted garbage")
	}
	if got := AbstractType(99).String(); got != "AbstractType(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestLocationNames(t *testing.T) {
	for _, l := range []Location{LocNowhere, LocStack, LocHeap, LocGlobal, LocRegister} {
		back, err := ParseLocation(l.String())
		if err != nil || back != l {
			t.Errorf("round trip of %v failed: %v %v", l, back, err)
		}
	}
	if _, err := ParseLocation("ATTIC"); err == nil {
		t.Error("ParseLocation accepted garbage")
	}
}

func TestPrimitiveAccessors(t *testing.T) {
	if v, ok := NewInt(42).Int(); !ok || v != 42 {
		t.Errorf("Int() = %v, %v", v, ok)
	}
	if v, ok := NewFloat(2.5).Float(); !ok || v != 2.5 {
		t.Errorf("Float() = %v, %v", v, ok)
	}
	if v, ok := NewBool(true).Bool(); !ok || !v {
		t.Errorf("Bool() = %v, %v", v, ok)
	}
	if v, ok := NewString("hi").Str(); !ok || v != "hi" {
		t.Errorf("Str() = %v, %v", v, ok)
	}
	// Wrong-kind accessors must fail.
	if _, ok := NewInt(1).Str(); ok {
		t.Error("Str() on int succeeded")
	}
	if _, ok := NewString("x").Int(); ok {
		t.Error("Int() on string succeeded")
	}
	if _, ok := NewNone().Int(); ok {
		t.Error("Int() on None succeeded")
	}
}

func TestCompositeAccessors(t *testing.T) {
	inner := NewInt(1)
	ref := NewRef(inner)
	if ref.Deref() != inner {
		t.Error("Deref lost target")
	}
	if NewInt(1).Deref() != nil {
		t.Error("Deref on primitive not nil")
	}

	l := NewList(NewInt(1), NewInt(2))
	if len(l.Elems()) != 2 {
		t.Errorf("Elems() = %v", l.Elems())
	}
	if NewInt(1).Elems() != nil {
		t.Error("Elems on primitive not nil")
	}

	d := NewDict(DictEntry{NewString("a"), NewInt(1)})
	if len(d.Entries()) != 1 {
		t.Errorf("Entries() = %v", d.Entries())
	}

	s := NewStruct(Field{"x", NewInt(3)}, Field{"y", NewInt(4)})
	if got := s.FieldByName("y"); got == nil || got.String() != "4" {
		t.Errorf("FieldByName(y) = %v", got)
	}
	if s.FieldByName("z") != nil {
		t.Error("FieldByName(z) found phantom field")
	}

	f := NewFunction("fib")
	if n, ok := f.FuncName(); !ok || n != "fib" {
		t.Errorf("FuncName() = %q, %v", n, ok)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    *Value
		want string
	}{
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewBool(false), "false"},
		{NewString("a\"b"), `"a\"b"`},
		{NewNone(), "None"},
		{NewInvalid(), "<invalid>"},
		{NewFunction("main"), "<function main>"},
		{NewRef(NewInt(9)), "&9"},
		{NewList(NewInt(1), NewString("x")), `[1, "x"]`},
		{NewDict(DictEntry{NewString("k"), NewInt(2)}), `{"k": 2}`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	st := NewStruct(Field{"x", NewInt(1)})
	st.LanguageType = "point"
	if got := st.String(); got != "point{x=1}" {
		t.Errorf("struct String() = %q", got)
	}
}

func TestValueStringCycle(t *testing.T) {
	l := NewList(NewInt(1))
	l.Content = append(l.Elems(), l) // l = [1, l]
	got := l.String()
	if got != "[1, ...]" {
		t.Errorf("cyclic String() = %q", got)
	}
}

func TestValueEqual(t *testing.T) {
	a := NewList(NewInt(1), NewRef(NewString("s")))
	b := NewList(NewInt(1), NewRef(NewString("s")))
	if !a.Equal(b) {
		t.Error("structurally equal values reported unequal")
	}
	b.Elems()[0].Content = int64(2)
	if a.Equal(b) {
		t.Error("different values reported equal")
	}
	if a.Equal(nil) || !(*Value)(nil).Equal(nil) {
		t.Error("nil handling wrong")
	}

	// Address and language type participate in equality.
	c := NewInt(1)
	d := NewInt(1)
	d.Address = 8
	if c.Equal(d) {
		t.Error("values with different addresses reported equal")
	}
	e := NewInt(1)
	e.LanguageType = "long"
	if c.Equal(e) {
		t.Error("values with different language types reported equal")
	}
}

func TestValueEqualCycles(t *testing.T) {
	mk := func() *Value {
		l := NewList(NewInt(1))
		l.Content = append(l.Elems(), l)
		return l
	}
	a, b := mk(), mk()
	if !a.Equal(b) {
		t.Error("identical cyclic structures reported unequal")
	}
	c := NewList(NewInt(2))
	c.Content = append(c.Elems(), c)
	if a.Equal(c) {
		t.Error("different cyclic structures reported equal")
	}
}

func TestSortedEntries(t *testing.T) {
	d := NewDict(
		DictEntry{NewString("b"), NewInt(2)},
		DictEntry{NewString("a"), NewInt(1)},
	)
	es := d.SortedEntries()
	if k, _ := es[0].Key.Str(); k != "a" {
		t.Errorf("SortedEntries first key = %q", k)
	}
	// Original untouched.
	if k, _ := d.Entries()[0].Key.Str(); k != "b" {
		t.Error("SortedEntries mutated the dict")
	}
}

// randomValue builds a random value tree of bounded depth, with occasional
// shared subvalues, for property tests. With wide set, strings and floats
// also take the forms that exercise every escaping and formatting rule of
// the JSON encoder (see randString), plus NaN and the infinities, and some
// primitives hold a Go type the encoder formats with fmt.Sprint.
func randomValue(r *rand.Rand, depth int, pool *[]*Value, wide bool) *Value {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return NewInt(r.Int63() - r.Int63())
		case 1:
			if wide && r.Intn(2) == 0 {
				return NewFloat([]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e21, 1e-7, math.Copysign(0, -1)}[r.Intn(6)])
			}
			return NewFloat(r.NormFloat64())
		case 2:
			return NewBool(r.Intn(2) == 0)
		case 3:
			if wide && r.Intn(4) == 0 {
				return &Value{Kind: Primitive, Content: int32(r.Intn(100))}
			}
			return NewString(randString(r, wide))
		case 4:
			return NewNone()
		default:
			return NewFunction(randString(r, wide))
		}
	}
	// Occasionally reuse an existing value to create sharing.
	if len(*pool) > 0 && r.Intn(4) == 0 {
		return (*pool)[r.Intn(len(*pool))]
	}
	var v *Value
	switch r.Intn(4) {
	case 0:
		v = NewRef(randomValue(r, depth-1, pool, wide))
	case 1:
		n := r.Intn(4)
		elems := make([]*Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1, pool, wide)
		}
		v = NewList(elems...)
	case 2:
		n := r.Intn(3)
		entries := make([]DictEntry, n)
		for i := range entries {
			entries[i] = DictEntry{randomValue(r, depth-1, pool, wide), randomValue(r, depth-1, pool, wide)}
		}
		v = NewDict(entries...)
	default:
		n := r.Intn(3)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = Field{randString(r, wide), randomValue(r, depth-1, pool, wide)}
		}
		v = NewStruct(fields...)
		v.LanguageType = "S"
	}
	v.Address = uint64(r.Intn(1 << 16))
	v.Location = Location(r.Intn(5))
	*pool = append(*pool, v)
	return v
}

// wideFragments are the pieces of wide random strings: plain text, and
// each byte or character the JSON encoder escapes — quote, backslash,
// the HTML characters, control bytes, U+2028, U+2029 and a byte that is not
// valid UTF-8.
var wideFragments = []string{
	"a", "_", "日本", `"`, `\`, "<", ">", "&", "\n", "\t", "\x01", "\x7f",
	"\xe2\x80\xa8", "\xe2\x80\xa9", "\xff",
}

func randString(r *rand.Rand, wide bool) string {
	n := r.Intn(6)
	if wide {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(wideFragments[r.Intn(len(wideFragments))])
		}
		return b.String()
	}
	const alpha = "abcdefgh_日本"
	rs := []rune(alpha)
	out := make([]rune, n)
	for i := range out {
		out[i] = rs[r.Intn(len(rs))]
	}
	return string(out)
}

// valueGen adapts randomValue to testing/quick.
type valueGen struct{ V *Value }

// Generate implements quick.Generator.
func (valueGen) Generate(r *rand.Rand, size int) reflect.Value {
	var pool []*Value
	return reflect.ValueOf(valueGen{randomValue(r, 4, &pool, false)})
}

// wideValueGen is valueGen with the wide strings and floats of randomValue.
// They do not survive a round trip (U+FFFD replaces invalid UTF-8, NaN is
// not equal to itself), so only encoder properties use it. Pool holds the
// composite values built along the way.
type wideValueGen struct {
	V    *Value
	Pool []*Value
}

// Generate implements quick.Generator.
func (wideValueGen) Generate(r *rand.Rand, size int) reflect.Value {
	var pool []*Value
	v := randomValue(r, 4, &pool, true)
	return reflect.ValueOf(wideValueGen{v, pool})
}

func TestQuickEqualReflexive(t *testing.T) {
	f := func(g valueGen) bool { return g.V.Equal(g.V) }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickStringTerminates(t *testing.T) {
	// String must terminate and be non-panicking for arbitrary graphs.
	f := func(g valueGen) bool { _ = g.V.String(); return true }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
