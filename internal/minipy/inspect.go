package minipy

import (
	"easytracker/internal/core"
)

// Converter turns MiniPy runtime objects into core.Value graphs.
//
// Within one snapshot objects are memoized by identity, so aliasing and
// cycles in the program state survive conversion and every conversion of
// an object returns the same *core.Value. A snapshot begins whenever the
// interpreter's mutation epoch has moved since the converter's last call.
//
// A converter kept across pauses builds each snapshot as an update of the
// previous one (DESIGN.md §19). A container bound to a variable whose
// reachable graph was not written since its Value was built returns that
// Value; a container that was written is rebuilt against its previous
// Value, keeping every unchanged slot, and unchanged Variables, Vars slices
// and Frames are reused too. Values are therefore shared between snapshots
// and must be treated as read-only. A converter used for one snapshot
// converts exactly as a fresh walk would.
type Converter struct {
	in   *Interp
	memo map[uint64]entry
	// epoch is the interpreter epoch of the current snapshot; touched
	// counts the memo entries the snapshot used, the yardstick of the
	// memo bound.
	epoch   uint64
	touched int
	// dfs numbers containers in visit order. stack holds the visited
	// containers whose strongly connected component is still open
	// (Tarjan's algorithm): a cycle is kept or rebuilt as a whole.
	dfs   uint32
	stack []sccItem
	// frame and globals are the previous snapshot's results, matched
	// against the next snapshot's so unchanged parts are reused.
	frame   *core.Frame
	globals []*core.Variable
}

// entry is the memo record of one object.
type entry struct {
	// v is the object's Value in the latest snapshot that used it.
	v *core.Value
	// epoch is the interpreter epoch at which v was last known current;
	// it equals the converter's epoch once the current snapshot used v.
	// Scalars never change, so their entries leave it unset.
	epoch uint64
	// idx is the container's DFS number while it is on the stack.
	idx uint32
	// size is the number of entries the last walk from a binding to this
	// container used; serving the binding from the memo counts it again.
	size uint32
}

// sccItem is one container on the stack of open components.
type sccItem struct {
	o       *Object
	old     *core.Value // the previous snapshot's Value; nil for a new object
	changed bool        // o's slots differ from old's
}

// walkState carries a container walk's Tarjan lowlink, and whether the
// walk met an open component (a back edge) on the way.
type walkState struct {
	low    uint32
	cyclic bool
}

// NewConverter returns a converter for objects of the interpreter in.
func NewConverter(in *Interp) *Converter { return &Converter{in: in} }

// remember records a new memo entry, creating the memo on first use so a
// converter that only meets unshared scalars allocates none.
func (c *Converter) remember(id uint64, e entry) {
	if c.memo == nil {
		c.memo = map[uint64]entry{}
	}
	c.memo[id] = e
}

// begin starts a new snapshot when the program state moved since the last
// conversion. The memo is dropped first if it holds more than twice the
// entries the last snapshot used, plus slack, so objects the program no
// longer shows do not stay pinned. Only a whole memo may go: a kept Value
// points at its children's memoized Values.
func (c *Converter) begin() {
	e := c.in.Epoch()
	if e == c.epoch {
		return
	}
	if len(c.memo) > 2*c.touched+64 {
		c.memo = nil
	}
	c.epoch = e
	c.touched = 0
}

// isCompound reports whether the object is shown behind a reference arrow in
// visualizations (mutable containers and instances), as Python Tutor does.
func isCompound(o *Object) bool {
	switch o.Kind {
	case OList, OTuple, ODict, OInstance:
		return true
	}
	return false
}

// Convert returns the heap-located core.Value for the object.
func (c *Converter) Convert(o *Object) *core.Value {
	c.begin()
	return c.root(o)
}

// VarValue converts a variable binding: per the paper's conceptual model,
// every MiniPy variable is a stack-located Ref to a heap value.
func (c *Converter) VarValue(o *Object) *core.Value {
	c.begin()
	return c.varValue(o, nil)
}

// varValue is VarValue against the binding's previous Value p, which it
// returns while the binding still refers to the same Value.
func (c *Converter) varValue(o *Object, p *core.Value) *core.Value {
	var pt *core.Value
	if p != nil {
		pt = p.Deref()
	}
	var t *core.Value
	if o != nil && o.ID == 0 && sameScalar(pt, o) {
		t = pt
	} else {
		t = c.root(o)
	}
	if p != nil && t == pt {
		return p
	}
	return &core.Value{Kind: core.Ref, Content: t, Location: core.LocStack, LanguageType: "ref"}
}

// root converts an object bound to a variable. A container the snapshot
// has not used yet is served from the memo when nothing reachable from it
// was written since its Value was last known current; otherwise it is
// walked. The reachability test runs at bindings only: below a binding
// reuse is decided bottom-up, since testing every object would re-walk the
// rest of a linked structure at each node.
func (c *Converter) root(o *Object) *core.Value {
	if o != nil && isCompound(o) {
		if e, ok := c.memo[o.ID]; ok && e.epoch != c.epoch && c.in.ReachableEpoch(o) <= e.epoch {
			e.epoch = c.epoch
			c.memo[o.ID] = e
			c.touched += int(e.size)
			return e.v
		}
	}
	var st walkState
	return c.target(o, &st)
}

// target returns o's Value in the current snapshot, walking a container the
// snapshot has not visited yet. st is the walk state of the container
// holding the reference.
func (c *Converter) target(o *Object, st *walkState) *core.Value {
	switch {
	case o == nil:
		return core.NewInvalid()
	case o.ID == 0:
		return scalarValue(o)
	case !isCompound(o):
		c.touched++
		if e, ok := c.memo[o.ID]; ok {
			return e.v
		}
		v := scalarValue(o)
		c.remember(o.ID, entry{v: v})
		return v
	}
	e, ok := c.memo[o.ID]
	if ok && e.epoch == c.epoch {
		if e.idx != 0 {
			// A back edge into an open component.
			st.cyclic = true
			st.low = min(st.low, e.idx)
		}
		return e.v
	}
	v, low := c.walk(o, e)
	st.low = min(st.low, low)
	return v
}

// walk converts the container o, whose memo entry is e, deciding reuse
// bottom-up: o keeps its previous Value when every slot comes back
// identical, and otherwise its slot slice is copied at the first
// difference. It returns o's Value and o's lowlink. While o's component is
// open the Value is provisional: the previous one, or for a new object the
// Value it will get. When o closes its component, the whole component
// keeps its previous Values if no member changed and is rebuilt otherwise,
// so no kept Value ever points at a replaced one.
func (c *Converter) walk(o *Object, e entry) (*core.Value, uint32) {
	if len(c.stack) == 0 {
		c.dfs = 0 // no component is open: DFS numbers restart
	}
	start := c.touched
	c.touched++
	c.dfs++
	old := e.v
	if old == nil {
		e.v = header(o)
	}
	idx := c.dfs
	e.epoch, e.idx = c.epoch, idx
	c.remember(o.ID, e)
	sp := len(c.stack)
	c.stack = append(c.stack, sccItem{o: o, old: old})
	st := walkState{low: idx}
	content, changed := c.content(o, old, &st)
	c.stack[sp].changed = changed
	if st.low < idx {
		return e.v, st.low
	}
	scc := c.stack[sp:]
	if len(scc) == 1 && (!changed || !st.cyclic) {
		if changed {
			if old != nil {
				e.v = header(o)
			}
			e.v.Content = content
		}
		e.idx = 0
	} else {
		c.close(scc)
		e = c.memo[o.ID]
	}
	if sp == 0 {
		e.size = uint32(c.touched - start)
	}
	c.memo[o.ID] = e
	clear(scc)
	c.stack = c.stack[:sp]
	return e.v, idx
}

// close settles a strongly connected component of several members, or of
// one member referring to itself. If no member changed, every member keeps
// its previous Value. Otherwise every member gets a new Value and its slots
// are converted again against the component's final Values; every other
// object they reach is already settled, so this second pass walks nothing.
func (c *Converter) close(scc []sccItem) {
	changed := false
	for _, m := range scc {
		changed = changed || m.changed
	}
	for _, m := range scc {
		e := c.memo[m.o.ID]
		if changed && m.old != nil {
			e.v = header(m.o)
		}
		e.idx = 0
		c.memo[m.o.ID] = e
	}
	if !changed {
		return
	}
	for _, m := range scc {
		var st walkState
		content, _ := c.content(m.o, m.old, &st)
		c.memo[m.o.ID].v.Content = content
	}
}

// header returns a container's Value without its content.
func header(o *Object) *core.Value {
	v := &core.Value{Location: core.LocHeap, Address: o.ID, LanguageType: o.TypeName()}
	switch o.Kind {
	case OList, OTuple:
		v.Kind = core.List
	case ODict:
		v.Kind = core.Dict
	case OInstance:
		v.Kind = core.Struct
	}
	return v
}

// content converts the slots of the container o against its previous Value
// old (nil for none) and reports whether they differ from old's. Unchanged
// slots are old's own slice.
func (c *Converter) content(o *Object, old *core.Value, st *walkState) (any, bool) {
	switch o.Kind {
	case OList, OTuple:
		var prev []*core.Value
		if old != nil {
			prev = old.Content.([]*core.Value)
		}
		elems, changed := reslot(prev, len(o.L), func(i int, p *core.Value) *core.Value {
			return c.slot(o.L[i], p, st)
		})
		if elems == nil {
			elems = []*core.Value{} // a list always carries a slice
		}
		return elems, changed || old == nil
	case ODict:
		var prev []core.DictEntry
		if old != nil {
			prev = old.Content.([]core.DictEntry)
		}
		d := o.D
		entries, changed := reslot(prev, len(d.keys), func(i int, p core.DictEntry) core.DictEntry {
			hk := d.keys[i]
			return core.DictEntry{Key: c.inline(d.kobj[hk], p.Key, st), Val: c.slot(d.vobj[hk], p.Val, st)}
		})
		return entries, changed || old == nil
	default: // OInstance
		var prev []core.Field
		if old != nil {
			prev = old.Content.([]core.Field)
		}
		a := o.Attrs
		fields, changed := reslot(prev, len(a.keys), func(i int, p core.Field) core.Field {
			hk := a.keys[i]
			return core.Field{Name: a.kobj[hk].S, Value: c.slot(a.vobj[hk], p.Value, st)}
		})
		return fields, changed || old == nil
	}
}

// reslot builds a container's n slots against its previous slots prev:
// slot i is at(i, p), where p is prev[i] or the zero T past prev's end. The
// result is prev itself while every slot comes back equal, and otherwise a
// copy made at the first difference.
func reslot[T comparable](prev []T, n int, at func(i int, p T) T) ([]T, bool) {
	var out []T
	for i := 0; i < n; i++ {
		var p T
		if i < len(prev) {
			p = prev[i]
		}
		v := at(i, p)
		if out == nil && v != p {
			out = make([]T, n)
			copy(out, prev[:i])
		}
		if out != nil {
			out[i] = v
		}
	}
	switch {
	case out != nil:
		return out, true
	case n == len(prev):
		return prev, false
	case n == 0:
		return nil, true
	}
	return append([]T(nil), prev[:n]...), true
}

// slot converts a container-element or attribute slot whose previous Value
// was p: compound targets get a Ref wrapper (an arrow in diagrams),
// primitives are inlined. p itself comes back when the slot is unchanged.
func (c *Converter) slot(o *Object, p *core.Value, st *walkState) *core.Value {
	if o == nil || !isCompound(o) {
		return c.inline(o, p, st)
	}
	t := c.target(o, st)
	if p != nil && p.Kind == core.Ref && p.Content == t {
		return p
	}
	return &core.Value{Kind: core.Ref, Content: t, Location: core.LocHeap, LanguageType: "ref"}
}

// inline converts a value stored without a Ref wrapper whose previous Value
// was p. An unshared scalar (id 0: a shared small int) has no memo entry,
// so p is reused when it shows the same number.
func (c *Converter) inline(o *Object, p *core.Value, st *walkState) *core.Value {
	if o != nil && o.ID == 0 && sameScalar(p, o) {
		return p
	}
	return c.target(o, st)
}

// sameScalar reports whether v is what scalarValue builds for the unshared
// scalar o. Only the shared small ints have no id; any other object without
// one is simply converted again.
func sameScalar(v *core.Value, o *Object) bool {
	if v == nil || o.Kind != OInt || v.Kind != core.Primitive || v.Address != 0 {
		return false
	}
	x, ok := v.Content.(int64)
	return ok && x == o.I
}

// scalarValue converts an object that is not a container.
func scalarValue(o *Object) *core.Value {
	v := &core.Value{
		Location:     core.LocHeap,
		Address:      o.ID,
		LanguageType: o.TypeName(),
	}
	switch o.Kind {
	case OInt:
		v.Kind = core.Primitive
		v.Content = o.I
	case OFloat:
		v.Kind = core.Primitive
		v.Content = o.F
	case OBool:
		v.Kind = core.Primitive
		v.Content = o.B
	case OStr:
		v.Kind = core.Primitive
		v.Content = o.S
	case ONone:
		v.Kind = core.None
	case OFunc:
		v.Kind = core.Function
		v.Content = o.Fn.Name
	case OBuiltin:
		v.Kind = core.Function
		v.Content = o.Bi.Name
	case OMethod:
		v.Kind = core.Function
		v.Content = o.Fn.Name
	case OClass:
		v.Kind = core.Function
		v.Content = o.Cls.Name
		v.LanguageType = "type"
	default:
		v.Kind = core.Invalid
	}
	return v
}

// builtinNames lists the globals installed by the interpreter itself, which
// inspection hides (as Python tools hide __builtins__).
var builtinNames = map[string]bool{
	"print": true, "len": true, "range": true, "abs": true, "min": true,
	"max": true, "sum": true, "sorted": true, "str": true, "repr": true,
	"int": true, "float": true, "bool": true, "list": true, "tuple": true,
	"dict": true, "id": true, "type": true, "chr": true, "ord": true,
	"enumerate": true, "zip": true, "input": true, "exit": true,
	"isinstance": true,
}

// SnapshotFrame converts the live frame chain into core.Frames. file is the
// program's display name; the innermost frame is returned. A frame equal in
// every field to the previous snapshot's frame at the same depth, Vars and
// parent included, is that frame.
func SnapshotFrame(c *Converter, fr *RTFrame, file string) *core.Frame {
	c.begin()
	out := c.snapFrame(fr, c.frame, file)
	c.frame = out
	return out
}

// snapFrame converts fr and its callers; prev is the previous snapshot's
// frame chain, entered at a depth no smaller than fr's. Frames are matched
// by depth: reuse is decided by content, not by call activation.
func (c *Converter) snapFrame(fr *RTFrame, prev *core.Frame, file string) *core.Frame {
	if fr == nil {
		return nil
	}
	for prev != nil && prev.Depth > fr.Depth {
		prev = prev.Parent
	}
	parent := c.snapFrame(fr.Parent, prev, file)
	if prev != nil && prev.Depth != fr.Depth {
		prev = nil
	}
	var oldVars []*core.Variable
	if prev != nil {
		oldVars = prev.Vars
	}
	// Module-level builtins, function and class definitions are
	// reported through globals, not as frame variables.
	module := fr.Fn == nil
	vars, changed := c.vars(fr.Locals, module, module, oldVars)
	if prev != nil && !changed && prev.Name == fr.Name && prev.File == file &&
		prev.Line == fr.Line && prev.PC == 0 && prev.Parent == parent {
		return prev
	}
	return &core.Frame{
		Name:   fr.Name,
		Depth:  fr.Depth,
		File:   file,
		Line:   fr.Line,
		Vars:   vars,
		Parent: parent,
	}
}

// SnapshotGlobals converts the module scope's user-defined bindings.
func SnapshotGlobals(c *Converter, g *Scope) []*core.Variable {
	c.begin()
	out, _ := c.vars(g, true, false, c.globals)
	c.globals = out
	return out
}

// vars converts a scope's bindings against the previous snapshot's prev,
// optionally hiding builtins and definitions. Variables matching prev by
// position, name and Value are reused, the slice is copied at the first
// difference and sized by the bindings left, and an unchanged result is
// prev itself (changed is false).
func (c *Converter) vars(s *Scope, builtins, defs bool, prev []*core.Variable) (out []*core.Variable, changed bool) {
	n := 0
	for k, name := range s.names {
		if builtins && builtinNames[name] {
			continue
		}
		o, _ := s.Get(name)
		if defs && (o.Kind == OFunc || o.Kind == OClass) {
			continue
		}
		var p *core.Variable
		var pv *core.Value
		if n < len(prev) && prev[n].Name == name {
			p, pv = prev[n], prev[n].Value
		}
		v := c.varValue(o, pv)
		if out == nil && v != pv {
			out = make([]*core.Variable, n, n+len(s.names)-k)
			copy(out, prev[:n])
		}
		if out != nil {
			if v != pv {
				p = &core.Variable{Name: name, Value: v}
			}
			out = append(out, p)
		}
		n++
	}
	if out != nil {
		return out, true
	}
	if n == len(prev) {
		return prev, false
	}
	if n == 0 {
		return nil, true
	}
	return append([]*core.Variable(nil), prev[:n]...), true
}
