// Package core defines the language-agnostic, serializable representation of
// a paused program's state, the pause-reason taxonomy, and the Tracker
// interface implemented by every tracker (MiniPy, MiniGDB/MI, trace replay).
//
// The model mirrors Section II-B2 of the EasyTracker paper: a paused program
// is a stack of Frames; each Frame holds named Variables; each Variable holds
// a Value. A Value carries an abstract type (what kind of thing it is across
// languages), a location in the conceptual memory of the program (stack,
// heap, global space, or a register), a concrete address when meaningful, and
// the type name in the inferior language's own terminology.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// AbstractType classifies a Value independently of the inferior language.
type AbstractType int

const (
	// Primitive represents MiniPy int, float, bool and str, and MiniC
	// int, long, double, float, char and char*. Content holds a Go
	// int64, float64, bool or string.
	Primitive AbstractType = iota
	// Ref represents MiniC pointers and MiniPy variables/attribute slots.
	// Content holds the pointed-to *Value.
	Ref
	// List represents MiniC arrays and MiniPy lists and tuples.
	// Content holds a []*Value.
	List
	// Dict represents MiniPy dictionaries. Content holds a []DictEntry
	// (a slice rather than a map so key order is stable and keys may be
	// arbitrary Values).
	Dict
	// Struct represents MiniC structures and MiniPy class instances.
	// Content holds a []Field (ordered name/value pairs).
	Struct
	// None represents the MiniPy None instance. Content is nil.
	None
	// Invalid represents MiniC invalid pointers (dangling, wild, or
	// pointing outside any mapped segment). Content is nil.
	Invalid
	// Function represents MiniC function pointers and MiniPy function
	// objects. Content holds the function name as a string.
	Function
)

var abstractTypeNames = [...]string{
	Primitive: "PRIMITIVE",
	Ref:       "REF",
	List:      "LIST",
	Dict:      "DICT",
	Struct:    "STRUCT",
	None:      "NONE",
	Invalid:   "INVALID",
	Function:  "FUNCTION",
}

// String returns the paper's uppercase name for the abstract type.
func (t AbstractType) String() string {
	if t < 0 || int(t) >= len(abstractTypeNames) {
		return fmt.Sprintf("AbstractType(%d)", int(t))
	}
	return abstractTypeNames[t]
}

// ParseAbstractType converts the uppercase wire name back to an AbstractType.
func ParseAbstractType(s string) (AbstractType, error) {
	for i, n := range abstractTypeNames {
		if n == s {
			return AbstractType(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown abstract type %q", s)
}

// Location says where a Value lives in the conceptual memory of the program.
type Location int

const (
	// LocNowhere is used for synthesized values with no storage (for
	// example the target description of an invalid pointer).
	LocNowhere Location = iota
	// LocStack marks values stored in a stack frame.
	LocStack
	// LocHeap marks values stored in dynamically allocated memory.
	LocHeap
	// LocGlobal marks values in global/static storage.
	LocGlobal
	// LocRegister marks values held in a machine register (assembly-level
	// inspection through the MiniGDB tracker).
	LocRegister
)

var locationNames = [...]string{
	LocNowhere:  "NOWHERE",
	LocStack:    "STACK",
	LocHeap:     "HEAP",
	LocGlobal:   "GLOBAL",
	LocRegister: "REGISTER",
}

// String returns the wire name of the location.
func (l Location) String() string {
	if l < 0 || int(l) >= len(locationNames) {
		return fmt.Sprintf("Location(%d)", int(l))
	}
	return locationNames[l]
}

// ParseLocation converts a wire name back to a Location.
func ParseLocation(s string) (Location, error) {
	for i, n := range locationNames {
		if n == s {
			return Location(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown location %q", s)
}

// DictEntry is one key/value pair of a Dict value.
type DictEntry struct {
	Key *Value
	Val *Value
}

// Field is one named member of a Struct value, in declaration order.
type Field struct {
	Name  string
	Value *Value
}

// Value is the serializable representation of one runtime value.
//
// Content's dynamic type is determined by Kind:
//
//	Primitive -> int64 | float64 | bool | string
//	Ref       -> *Value
//	List      -> []*Value
//	Dict      -> []DictEntry
//	Struct    -> []Field
//	None      -> nil
//	Invalid   -> nil
//	Function  -> string (function name)
type Value struct {
	// Kind is the language-agnostic classification of the value.
	Kind AbstractType
	// Content holds the payload; see the type table above.
	Content any
	// Location says in which conceptual memory region the value lives.
	Location Location
	// Address is the concrete address of the value when it has one.
	// It is zero for Ref values (the paper: "the notion of address makes
	// no sense" for references) and for synthesized values.
	Address uint64
	// LanguageType is the type name in the inferior language's own
	// terminology, e.g. "char*" for a C string or "tuple" for a MiniPy
	// tuple.
	LanguageType string
}

// NewInt builds a Primitive integer value.
func NewInt(v int64) *Value { return &Value{Kind: Primitive, Content: v} }

// NewFloat builds a Primitive floating-point value.
func NewFloat(v float64) *Value { return &Value{Kind: Primitive, Content: v} }

// NewBool builds a Primitive boolean value.
func NewBool(v bool) *Value { return &Value{Kind: Primitive, Content: v} }

// NewString builds a Primitive string value.
func NewString(v string) *Value { return &Value{Kind: Primitive, Content: v} }

// NewNone builds the None value.
func NewNone() *Value { return &Value{Kind: None} }

// NewInvalid builds an Invalid-pointer value.
func NewInvalid() *Value { return &Value{Kind: Invalid} }

// NewRef builds a Ref value pointing at target.
func NewRef(target *Value) *Value { return &Value{Kind: Ref, Content: target} }

// NewList builds a List value from elems.
func NewList(elems ...*Value) *Value { return &Value{Kind: List, Content: elems} }

// NewDict builds a Dict value from entries.
func NewDict(entries ...DictEntry) *Value { return &Value{Kind: Dict, Content: entries} }

// NewStruct builds a Struct value from fields.
func NewStruct(fields ...Field) *Value { return &Value{Kind: Struct, Content: fields} }

// NewFunction builds a Function value naming fn.
func NewFunction(fn string) *Value { return &Value{Kind: Function, Content: fn} }

// Int returns the integer payload of a Primitive value.
// The second result is false if the value is not an integer primitive.
func (v *Value) Int() (int64, bool) {
	i, ok := v.Content.(int64)
	return i, ok && v.Kind == Primitive
}

// Float returns the floating-point payload of a Primitive value.
func (v *Value) Float() (float64, bool) {
	f, ok := v.Content.(float64)
	return f, ok && v.Kind == Primitive
}

// Bool returns the boolean payload of a Primitive value.
func (v *Value) Bool() (bool, bool) {
	b, ok := v.Content.(bool)
	return b, ok && v.Kind == Primitive
}

// Str returns the string payload of a Primitive value.
func (v *Value) Str() (string, bool) {
	s, ok := v.Content.(string)
	return s, ok && v.Kind == Primitive
}

// Deref returns the target of a Ref value, or nil if v is not a Ref.
func (v *Value) Deref() *Value {
	if v.Kind != Ref {
		return nil
	}
	t, _ := v.Content.(*Value)
	return t
}

// Elems returns the elements of a List value, or nil.
func (v *Value) Elems() []*Value {
	if v.Kind != List {
		return nil
	}
	e, _ := v.Content.([]*Value)
	return e
}

// Entries returns the entries of a Dict value, or nil.
func (v *Value) Entries() []DictEntry {
	if v.Kind != Dict {
		return nil
	}
	e, _ := v.Content.([]DictEntry)
	return e
}

// Fields returns the fields of a Struct value, or nil.
func (v *Value) Fields() []Field {
	if v.Kind != Struct {
		return nil
	}
	f, _ := v.Content.([]Field)
	return f
}

// FieldByName returns the named struct field's value, or nil.
func (v *Value) FieldByName(name string) *Value {
	for _, f := range v.Fields() {
		if f.Name == name {
			return f.Value
		}
	}
	return nil
}

// FuncName returns the function name of a Function value.
func (v *Value) FuncName() (string, bool) {
	s, ok := v.Content.(string)
	return s, ok && v.Kind == Function
}

// Equal reports deep structural equality of two values, including kind,
// location, address and language type. Reference cycles are handled: two
// values are considered equal if every finite observation of them agrees.
func (v *Value) Equal(o *Value) bool {
	return valueEqual(v, o, map[[2]*Value]bool{})
}

func valueEqual(a, b *Value, seen map[[2]*Value]bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	key := [2]*Value{a, b}
	if seen[key] {
		return true // already comparing this pair on the current path
	}
	seen[key] = true
	if a.Kind != b.Kind || a.Location != b.Location ||
		a.Address != b.Address || a.LanguageType != b.LanguageType {
		return false
	}
	switch a.Kind {
	case Primitive:
		return a.Content == b.Content
	case Ref:
		return valueEqual(a.Deref(), b.Deref(), seen)
	case List:
		ae, be := a.Elems(), b.Elems()
		if len(ae) != len(be) {
			return false
		}
		for i := range ae {
			if !valueEqual(ae[i], be[i], seen) {
				return false
			}
		}
		return true
	case Dict:
		ae, be := a.Entries(), b.Entries()
		if len(ae) != len(be) {
			return false
		}
		for i := range ae {
			if !valueEqual(ae[i].Key, be[i].Key, seen) ||
				!valueEqual(ae[i].Val, be[i].Val, seen) {
				return false
			}
		}
		return true
	case Struct:
		af, bf := a.Fields(), b.Fields()
		if len(af) != len(bf) {
			return false
		}
		for i := range af {
			if af[i].Name != bf[i].Name ||
				!valueEqual(af[i].Value, bf[i].Value, seen) {
				return false
			}
		}
		return true
	case None, Invalid:
		return true
	case Function:
		return a.Content == b.Content
	}
	return false
}

// Equivalent reports whether two values have the same structure and content,
// ignoring addresses, locations and language-type spelling: re-assigning an
// equal value to a variable allocates a fresh object at a new address but is
// not a modification. Watch checking uses it as the deep-compare fallback.
// Mixed int/float primitives compare numerically (MiniPy 2 == 2.0), two NaNs
// are equivalent (a NaN that stays a NaN did not change), and reference
// cycles are handled: two values are equivalent if every finite observation
// of them agrees. Comparisons of acyclic primitives allocate nothing; the
// cycle-tracking map is only materialized once a Ref or container recurses.
func (v *Value) Equivalent(o *Value) bool {
	return valueEquivalent(v, o, nil)
}

// WatchChanged is the one rule every tracker applies to decide whether a
// watched variable changed between two observations in forward time, before
// and after (nil: undefined). A variable that becomes defined has changed;
// one that disappears (a returned frame, a del) has not; otherwise it changed
// if and only if the two values are not Equivalent.
func WatchChanged(before, after *Value) bool {
	if after == nil {
		return false
	}
	return before == nil || !before.Equivalent(after)
}

// numEquivalent compares primitive payloads numerically when both are
// numbers; ok is false when either payload is not an int64/float64.
func numEquivalent(a, b any) (eq, ok bool) {
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return x == y, true
		case float64:
			return float64(x) == y, true
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return x == float64(y), true
		case float64:
			return x == y || (x != x && y != y), true // NaN ~ NaN
		}
	}
	return false, false
}

func valueEquivalent(a, b *Value, seen map[[2]*Value]bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Primitive:
		if eq, ok := numEquivalent(a.Content, b.Content); ok {
			return eq
		}
		return a.Content == b.Content
	case None, Invalid:
		return true
	case Function:
		return a.Content == b.Content
	}
	// Recursive kinds: materialize the cycle guard lazily so the common
	// primitive comparisons above never allocate.
	if seen == nil {
		seen = map[[2]*Value]bool{}
	}
	key := [2]*Value{a, b}
	if seen[key] {
		return true // already comparing this pair on the current path
	}
	seen[key] = true
	switch a.Kind {
	case Ref:
		return valueEquivalent(a.Deref(), b.Deref(), seen)
	case List:
		ae, be := a.Elems(), b.Elems()
		if len(ae) != len(be) {
			return false
		}
		for i := range ae {
			if !valueEquivalent(ae[i], be[i], seen) {
				return false
			}
		}
		return true
	case Dict:
		ae, be := a.Entries(), b.Entries()
		if len(ae) != len(be) {
			return false
		}
		for i := range ae {
			if !valueEquivalent(ae[i].Key, be[i].Key, seen) ||
				!valueEquivalent(ae[i].Val, be[i].Val, seen) {
				return false
			}
		}
		return true
	case Struct:
		// The class/struct name is part of the observable value: an
		// instance of a different class is a modification even when the
		// field values coincide.
		if a.LanguageType != b.LanguageType {
			return false
		}
		af, bf := a.Fields(), b.Fields()
		if len(af) != len(bf) {
			return false
		}
		for i := range af {
			if af[i].Name != bf[i].Name ||
				!valueEquivalent(af[i].Value, bf[i].Value, seen) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the value in a compact single-line human form used by the
// text tools and by tests. Cycles are cut with "...".
func (v *Value) String() string {
	var b strings.Builder
	v.render(&b, map[*Value]bool{})
	return b.String()
}

func (v *Value) render(b *strings.Builder, seen map[*Value]bool) {
	if v == nil {
		b.WriteString("<nil>")
		return
	}
	if seen[v] {
		b.WriteString("...")
		return
	}
	seen[v] = true
	defer delete(seen, v)
	switch v.Kind {
	case Primitive:
		switch c := v.Content.(type) {
		case int64:
			b.WriteString(strconv.FormatInt(c, 10))
		case float64:
			b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
		case bool:
			b.WriteString(strconv.FormatBool(c))
		case string:
			b.WriteString(strconv.Quote(c))
		default:
			fmt.Fprintf(b, "<bad primitive %T>", v.Content)
		}
	case Ref:
		b.WriteString("&")
		v.Deref().render(b, seen)
	case List:
		b.WriteString("[")
		for i, e := range v.Elems() {
			if i > 0 {
				b.WriteString(", ")
			}
			e.render(b, seen)
		}
		b.WriteString("]")
	case Dict:
		b.WriteString("{")
		for i, e := range v.Entries() {
			if i > 0 {
				b.WriteString(", ")
			}
			e.Key.render(b, seen)
			b.WriteString(": ")
			e.Val.render(b, seen)
		}
		b.WriteString("}")
	case Struct:
		b.WriteString(v.LanguageType)
		b.WriteString("{")
		for i, f := range v.Fields() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteString("=")
			f.Value.render(b, seen)
		}
		b.WriteString("}")
	case None:
		b.WriteString("None")
	case Invalid:
		b.WriteString("<invalid>")
	case Function:
		fmt.Fprintf(b, "<function %v>", v.Content)
	default:
		fmt.Fprintf(b, "<bad kind %d>", v.Kind)
	}
}

// SortedEntries returns the entries of a Dict sorted by the rendered key,
// for deterministic display; the underlying value is not modified.
func (v *Value) SortedEntries() []DictEntry {
	es := append([]DictEntry(nil), v.Entries()...)
	sort.SliceStable(es, func(i, j int) bool {
		return es[i].Key.String() < es[j].Key.String()
	})
	return es
}
