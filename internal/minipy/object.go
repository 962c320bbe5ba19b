package minipy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ObjKind enumerates the runtime object kinds of MiniPy.
type ObjKind int

// Object kinds.
const (
	OInt ObjKind = iota
	OFloat
	OBool
	OStr
	ONone
	OList
	OTuple
	ODict
	OFunc
	OBuiltin
	OClass
	OInstance
	OMethod
)

var objKindNames = [...]string{
	OInt: "int", OFloat: "float", OBool: "bool", OStr: "str",
	ONone: "NoneType", OList: "list", OTuple: "tuple", ODict: "dict",
	OFunc: "function", OBuiltin: "builtin_function_or_method",
	OClass: "type", OInstance: "instance", OMethod: "method",
}

// String returns the MiniPy type name of the kind.
func (k ObjKind) String() string {
	if k < 0 || int(k) >= len(objKindNames) {
		return fmt.Sprintf("ObjKind(%d)", int(k))
	}
	return objKindNames[k]
}

// Object is a MiniPy runtime value. Every object carries a unique id used as
// its conceptual heap address (the paper uses CPython's id() the same way).
// Mutable payloads (List, Dict, Instance attributes) are mutated in place so
// aliasing is observable, matching Python semantics.
type Object struct {
	// ID is the object's identity and conceptual heap address.
	ID uint64
	// Kind discriminates the payload fields below.
	Kind ObjKind

	// Epoch is the interpreter's mutation clock value at which this object
	// was allocated or last mutated in place (the write-barrier stamp).
	Epoch uint64
	// reachAt/reachMax memoize Interp.ReachableEpoch: reachMax is valid
	// while reachAt equals the interpreter's heap clock plus one (the +1
	// keeps the zero value distinct from clock 0).
	reachAt  uint64
	reachMax uint64
	// visit is the cycle-detection stamp of the current reachability walk.
	visit uint64

	I int64
	F float64
	B bool
	S string
	// L holds list and tuple elements.
	L []*Object
	// D holds dict entries in insertion order.
	D *OrderedDict
	// Fn is the payload of OFunc values.
	Fn *Function
	// Bi is the payload of OBuiltin values.
	Bi *Builtin
	// Cls is the payload of OClass values and the class of OInstance.
	Cls *Class
	// Attrs holds instance attributes in assignment order.
	Attrs *OrderedDict
	// Self is the bound receiver of OMethod values (Fn holds the method).
	Self *Object
}

// Function is a user-defined MiniPy function.
type Function struct {
	Name    string
	Params  []string
	Body    []Stmt
	DefLine int
	EndLine int
	// Globals names declared `global` inside the body, precomputed.
	GlobalNames map[string]bool
	// code is the compiled body when the function was created by the
	// bytecode engine; nil means the tree-walker executes Body directly.
	code *Code
}

// Builtin is a native function exposed to MiniPy programs.
type Builtin struct {
	Name string
	// Fn receives the interpreter (for I/O and allocation) and the
	// evaluated arguments.
	Fn func(in *Interp, args []*Object) (*Object, error)
}

// Class is a user-defined MiniPy class (single, no inheritance).
type Class struct {
	Name    string
	Methods map[string]*Object // name -> OFunc object
	// MethodOrder preserves declaration order for inspection.
	MethodOrder []string
	DefLine     int
}

// OrderedDict is an insertion-ordered string-or-value-keyed dictionary.
// MiniPy dict keys are restricted to hashable objects (int, float, bool,
// str, None, tuples of hashables), identified by their hash key string.
type OrderedDict struct {
	keys []string // hash keys in insertion order
	kobj map[string]*Object
	vobj map[string]*Object
}

// NewOrderedDict returns an empty ordered dictionary.
func NewOrderedDict() *OrderedDict {
	return &OrderedDict{kobj: map[string]*Object{}, vobj: map[string]*Object{}}
}

// Len returns the number of entries.
func (d *OrderedDict) Len() int { return len(d.keys) }

// Set inserts or replaces the entry for key.
func (d *OrderedDict) Set(key, val *Object) error {
	hk, err := hashKey(key)
	if err != nil {
		return err
	}
	if _, ok := d.kobj[hk]; !ok {
		d.keys = append(d.keys, hk)
		d.kobj[hk] = key
	}
	d.vobj[hk] = val
	return nil
}

// Get returns the value for key and whether it was present.
func (d *OrderedDict) Get(key *Object) (*Object, bool, error) {
	hk, err := hashKey(key)
	if err != nil {
		return nil, false, err
	}
	v, ok := d.vobj[hk]
	return v, ok, nil
}

// Delete removes the entry for key, reporting whether it was present.
func (d *OrderedDict) Delete(key *Object) (bool, error) {
	hk, err := hashKey(key)
	if err != nil {
		return false, err
	}
	if _, ok := d.vobj[hk]; !ok {
		return false, nil
	}
	delete(d.kobj, hk)
	delete(d.vobj, hk)
	for i, k := range d.keys {
		if k == hk {
			d.keys = append(d.keys[:i], d.keys[i+1:]...)
			break
		}
	}
	return true, nil
}

// Each calls f for every entry in insertion order; a false return stops the
// iteration.
func (d *OrderedDict) Each(f func(k, v *Object) bool) {
	for _, hk := range d.keys {
		if !f(d.kobj[hk], d.vobj[hk]) {
			return
		}
	}
}

// Keys returns the key objects in insertion order.
func (d *OrderedDict) Keys() []*Object {
	out := make([]*Object, 0, len(d.keys))
	for _, hk := range d.keys {
		out = append(out, d.kobj[hk])
	}
	return out
}

// Values returns the value objects in insertion order.
func (d *OrderedDict) Values() []*Object {
	out := make([]*Object, 0, len(d.keys))
	for _, hk := range d.keys {
		out = append(out, d.vobj[hk])
	}
	return out
}

// SetStr sets a string-keyed entry; used for instance attributes. The key
// object is allocated lazily by the interpreter when inspected, so attrs
// stored through SetStr use a bare string key object with ID 0.
func (d *OrderedDict) SetStr(key string, val *Object) {
	_ = d.Set(&Object{Kind: OStr, S: key}, val)
}

// GetStr fetches a string-keyed entry.
func (d *OrderedDict) GetStr(key string) (*Object, bool) {
	v, ok, _ := d.Get(&Object{Kind: OStr, S: key})
	return v, ok
}

// hashKey derives the hashability key of an object; unhashable kinds error.
func hashKey(o *Object) (string, error) {
	switch o.Kind {
	case OInt:
		return "i" + strconv.FormatInt(o.I, 10), nil
	case OBool:
		// Python: True == 1, hash(True) == hash(1).
		if o.B {
			return "i1", nil
		}
		return "i0", nil
	case OFloat:
		if o.F == float64(int64(o.F)) {
			return "i" + strconv.FormatInt(int64(o.F), 10), nil
		}
		return "f" + strconv.FormatFloat(o.F, 'g', -1, 64), nil
	case OStr:
		return "s" + o.S, nil
	case ONone:
		return "n", nil
	case OTuple:
		var b strings.Builder
		b.WriteString("t(")
		for _, e := range o.L {
			hk, err := hashKey(e)
			if err != nil {
				return "", err
			}
			b.WriteString(strconv.Itoa(len(hk)))
			b.WriteString(":")
			b.WriteString(hk)
		}
		b.WriteString(")")
		return b.String(), nil
	default:
		return "", fmt.Errorf("unhashable type: '%s'", o.Kind)
	}
}

// TypeName returns the MiniPy type name of the object ("int", "list", or the
// class name for instances).
func (o *Object) TypeName() string {
	if o.Kind == OInstance {
		return o.Cls.Name
	}
	return o.Kind.String()
}

// Truthy applies Python truthiness.
func (o *Object) Truthy() bool {
	switch o.Kind {
	case OInt:
		return o.I != 0
	case OFloat:
		return o.F != 0
	case OBool:
		return o.B
	case OStr:
		return o.S != ""
	case ONone:
		return false
	case OList, OTuple:
		return len(o.L) != 0
	case ODict:
		return o.D.Len() != 0
	default:
		return true
	}
}

// Repr renders the object as Python's repr() would (strings quoted).
func (o *Object) Repr() string {
	var b strings.Builder
	o.repr(&b, map[*Object]bool{}, true)
	return b.String()
}

// Str renders the object as Python's str() would (strings bare).
func (o *Object) Str() string {
	var b strings.Builder
	o.repr(&b, map[*Object]bool{}, false)
	return b.String()
}

func (o *Object) repr(b *strings.Builder, seen map[*Object]bool, quote bool) {
	if seen[o] {
		// Python's cyclic-repr markers.
		switch o.Kind {
		case OList:
			b.WriteString("[...]")
		case OTuple:
			b.WriteString("(...)")
		case ODict:
			b.WriteString("{...}")
		default:
			b.WriteString("...")
		}
		return
	}
	seen[o] = true
	defer delete(seen, o)
	switch o.Kind {
	case OInt:
		b.WriteString(strconv.FormatInt(o.I, 10))
	case OFloat:
		s := strconv.FormatFloat(o.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			s += ".0"
		}
		b.WriteString(s)
	case OBool:
		if o.B {
			b.WriteString("True")
		} else {
			b.WriteString("False")
		}
	case OStr:
		if quote {
			b.WriteString("'" + strings.ReplaceAll(o.S, "'", "\\'") + "'")
		} else {
			b.WriteString(o.S)
		}
	case ONone:
		b.WriteString("None")
	case OList:
		b.WriteString("[")
		for i, e := range o.L {
			if i > 0 {
				b.WriteString(", ")
			}
			e.repr(b, seen, true)
		}
		b.WriteString("]")
	case OTuple:
		b.WriteString("(")
		for i, e := range o.L {
			if i > 0 {
				b.WriteString(", ")
			}
			e.repr(b, seen, true)
		}
		if len(o.L) == 1 {
			b.WriteString(",")
		}
		b.WriteString(")")
	case ODict:
		b.WriteString("{")
		first := true
		o.D.Each(func(k, v *Object) bool {
			if !first {
				b.WriteString(", ")
			}
			first = false
			k.repr(b, seen, true)
			b.WriteString(": ")
			v.repr(b, seen, true)
			return true
		})
		b.WriteString("}")
	case OFunc:
		fmt.Fprintf(b, "<function %s>", o.Fn.Name)
	case OBuiltin:
		fmt.Fprintf(b, "<built-in function %s>", o.Bi.Name)
	case OClass:
		fmt.Fprintf(b, "<class '%s'>", o.Cls.Name)
	case OInstance:
		fmt.Fprintf(b, "<%s instance>", o.Cls.Name)
	case OMethod:
		fmt.Fprintf(b, "<bound method %s.%s>", o.Self.TypeName(), o.Fn.Name)
	}
}

// pyEqual implements MiniPy ==.
func pyEqual(a, b *Object) bool {
	an, aok := numVal(a)
	bn, bok := numVal(b)
	if aok && bok {
		return an == bn
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case OStr:
		return a.S == b.S
	case ONone:
		return true
	case OList, OTuple:
		if len(a.L) != len(b.L) {
			return false
		}
		for i := range a.L {
			if !pyEqual(a.L[i], b.L[i]) {
				return false
			}
		}
		return true
	case ODict:
		if a.D.Len() != b.D.Len() {
			return false
		}
		eq := true
		a.D.Each(func(k, v *Object) bool {
			bv, ok, err := b.D.Get(k)
			if err != nil || !ok || !pyEqual(v, bv) {
				eq = false
				return false
			}
			return true
		})
		return eq
	default:
		return a == b // identity for functions, classes, instances
	}
}

// numVal converts int/float/bool to a common float for mixed comparison.
func numVal(o *Object) (float64, bool) {
	switch o.Kind {
	case OInt:
		return float64(o.I), true
	case OFloat:
		return o.F, true
	case OBool:
		if o.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// pyLess implements MiniPy < for ordered types; error for unordered.
func pyLess(a, b *Object) (bool, error) {
	an, aok := numVal(a)
	bn, bok := numVal(b)
	if aok && bok {
		return an < bn, nil
	}
	if a.Kind == OStr && b.Kind == OStr {
		return a.S < b.S, nil
	}
	if (a.Kind == OList && b.Kind == OList) || (a.Kind == OTuple && b.Kind == OTuple) {
		for i := 0; i < len(a.L) && i < len(b.L); i++ {
			if pyEqual(a.L[i], b.L[i]) {
				continue
			}
			return pyLess(a.L[i], b.L[i])
		}
		return len(a.L) < len(b.L), nil
	}
	return false, fmt.Errorf("'<' not supported between instances of '%s' and '%s'",
		a.TypeName(), b.TypeName())
}

// sortObjects sorts a slice of objects with pyLess, reporting the first
// comparison error.
func sortObjects(xs []*Object) error {
	var sortErr error
	sort.SliceStable(xs, func(i, j int) bool {
		less, err := pyLess(xs[i], xs[j])
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return less
	})
	return sortErr
}
