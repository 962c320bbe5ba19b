package dbg

import (
	"math"
	"strconv"
	"strings"

	"easytracker/internal/core"
	"easytracker/internal/isa"
)

// Inspector converts typed inferior memory into the language-agnostic core
// state model. One Inspector corresponds to one snapshot: (address, type)
// pairs are memoized so aliased pointers share core.Value identity and
// cyclic structures (linked lists pointing back) terminate.
//
// This is the paper's custom GDB inspection command (Section II-C1): it
// recursively explores stack frames and the memory reachable from local
// variables, using the heap-block map for dynamic array sizes.
type Inspector struct {
	d    *Debugger
	memo map[memoKey]*core.Value
}

// memoKey names one Value of a snapshot: an address read as a type, the
// type spelled as the Value's LanguageType.
type memoKey struct {
	addr uint64
	ty   string
}

// NewInspector starts a fresh inspection snapshot.
func (d *Debugger) NewInspector() *Inspector {
	return &Inspector{d: d, memo: map[memoKey]*core.Value{}}
}

// locationOf classifies an address into the conceptual memory regions.
func (in *Inspector) locationOf(addr uint64) core.Location {
	for _, seg := range in.d.m.Segments() {
		if addr >= seg.Start && addr < seg.Start+seg.Size {
			switch seg.Name {
			case "stack":
				return core.LocStack
			case "heap":
				return core.LocHeap
			case "data":
				return core.LocGlobal
			case "text":
				return core.LocGlobal
			}
		}
	}
	return core.LocNowhere
}

// typeName returns ty's C name. A composite type's name is rendered once
// per debugger: the memo keys on the name, so every value an inspection
// visits, a memo hit too, would render its type again. The cache keys on
// the TypeInfo but hands out its name, so equal types reached through
// different TypeInfos still meet in the memo as one Value.
func (d *Debugger) typeName(ty *isa.TypeInfo) string {
	if ty == nil {
		return ty.String()
	}
	switch ty.Kind {
	case isa.KInt, isa.KChar, isa.KDouble, isa.KVoid:
		return string(ty.Kind)
	}
	if name, ok := d.typeNames[ty]; ok {
		return name
	}
	if d.typeNames == nil {
		d.typeNames = map[*isa.TypeInfo]string{}
	}
	name := ty.String()
	d.typeNames[ty] = name
	return name
}

// ValueAt reads a value of the given type at addr.
func (in *Inspector) ValueAt(addr uint64, ty *isa.TypeInfo) *core.Value {
	key := memoKey{addr, in.d.typeName(ty)}
	if v, ok := in.memo[key]; ok {
		return v
	}
	v := &core.Value{
		Address:      addr,
		Location:     in.locationOf(addr),
		LanguageType: key.ty,
	}
	in.memo[key] = v
	in.fill(v, addr, ty)
	return v
}

func (in *Inspector) fill(v *core.Value, addr uint64, ty *isa.TypeInfo) {
	m := in.d.m
	switch ty.Kind {
	case isa.KInt:
		raw, err := m.ReadU64(addr)
		if err != nil {
			v.Kind = core.Invalid
			return
		}
		v.Kind = core.Primitive
		v.Content = int64(raw)
	case isa.KChar:
		b, err := m.ReadMem(addr, 1)
		if err != nil {
			v.Kind = core.Invalid
			return
		}
		v.Kind = core.Primitive
		v.Content = int64(int8(b[0]))
	case isa.KDouble:
		raw, err := m.ReadU64(addr)
		if err != nil {
			v.Kind = core.Invalid
			return
		}
		v.Kind = core.Primitive
		v.Content = math.Float64frombits(raw)
	case isa.KPtr:
		raw, err := m.ReadU64(addr)
		if err != nil {
			v.Kind = core.Invalid
			return
		}
		in.fillPointer(v, raw, ty.Elem)
	case isa.KArray:
		v.Kind = core.List
		esz := uint64(ty.Elem.Sizeof(in.d.prog.Structs))
		elems := make([]*core.Value, ty.Len)
		for i := range elems {
			elems[i] = in.ValueAt(addr+uint64(i)*esz, ty.Elem)
		}
		v.Content = elems
	case isa.KStruct:
		lay, ok := in.d.prog.Structs[ty.Name]
		if !ok {
			v.Kind = core.Invalid
			return
		}
		v.Kind = core.Struct
		fields := make([]core.Field, len(lay.Fields))
		for i, f := range lay.Fields {
			fields[i] = core.Field{
				Name:  f.Name,
				Value: in.ValueAt(addr+uint64(f.Offset), f.Type),
			}
		}
		v.Content = fields
	case isa.KFunc:
		raw, err := m.ReadU64(addr)
		if err != nil {
			v.Kind = core.Invalid
			return
		}
		if fn := in.d.prog.FuncAt(raw); fn != nil {
			v.Kind = core.Function
			v.Content = fn.Name
		} else {
			v.Kind = core.Invalid
		}
	default:
		v.Kind = core.Invalid
	}
}

// fillPointer interprets a pointer value (the pointer cell itself lives at
// v.Address; ptr is the target address).
func (in *Inspector) fillPointer(v *core.Value, ptr uint64, elem *isa.TypeInfo) {
	m := in.d.m
	// char* is a PRIMITIVE string per the paper's model.
	if elem.Kind == isa.KChar {
		if ptr == 0 || !m.InRange(ptr, 1) {
			v.Kind = core.Invalid
			return
		}
		s, err := m.ReadCString(ptr, 1<<16)
		if err != nil {
			v.Kind = core.Invalid
			return
		}
		v.Kind = core.Primitive
		v.Content = s
		return
	}
	// Function pointers resolve to the pointed-to function's name.
	if elem.Kind == isa.KFunc || in.d.prog.FuncAt(ptr) != nil && elem.Kind == isa.KVoid {
		if fn := in.d.prog.FuncAt(ptr); fn != nil {
			v.Kind = core.Function
			v.Content = fn.Name
			return
		}
	}
	esz := uint64(elem.Sizeof(in.d.prog.Structs))
	if ptr == 0 || esz == 0 || !m.InRange(ptr, esz) {
		v.Kind = core.Invalid
		return
	}
	// Data pointers into the text segment are invalid (code is not data).
	if ptr < isa.DataBase {
		v.Kind = core.Invalid
		return
	}
	// Heap pointers to a tracked block expand to the whole array when
	// the block holds more than one element (the paper's heap-size
	// mechanism: plain int* plus the interposition map).
	if size, ok := in.d.heapMap[ptr]; ok && size > esz {
		n := int(size / esz)
		v.Kind = core.Ref
		akey := memoKey{ptr, in.d.typeName(elem) + "[" + strconv.Itoa(n) + "]"}
		if prev, ok := in.memo[akey]; ok {
			v.Content = prev
			return
		}
		arr := &core.Value{
			Address:      ptr,
			Location:     core.LocHeap,
			LanguageType: akey.ty,
			Kind:         core.List,
		}
		in.memo[akey] = arr
		elems := make([]*core.Value, n)
		for i := range elems {
			elems[i] = in.ValueAt(ptr+uint64(i)*esz, elem)
		}
		arr.Content = elems
		v.Content = arr
		return
	}
	v.Kind = core.Ref
	v.Content = in.ValueAt(ptr, elem)
}

// FrameVars builds the Variables of one unwound frame, honoring the scope
// ranges in the debug info (a local shows up only after its declaration).
func (in *Inspector) FrameVars(fr FrameRec) []*core.Variable {
	var out []*core.Variable
	for _, lv := range fr.Fn.Locals {
		if lv.ScopeStart != 0 && (fr.PC < lv.ScopeStart || fr.PC >= lv.ScopeEnd) {
			continue
		}
		addr := fr.FP + uint64(lv.Offset)
		out = append(out, &core.Variable{
			Name:  lv.Name,
			Value: in.ValueAt(addr, lv.Type),
		})
	}
	return out
}

// Frame converts the whole unwound stack into a core.Frame chain; the
// innermost frame is returned. Depth 0 is main.
func (in *Inspector) Frame() *core.Frame {
	recs := in.d.Unwind()
	var parent *core.Frame
	// Build outermost -> innermost.
	for i := len(recs) - 1; i >= 0; i-- {
		fr := recs[i]
		cf := &core.Frame{
			Name:   fr.Fn.Name,
			Depth:  len(recs) - 1 - i,
			File:   in.d.prog.SourceFile,
			Line:   in.d.prog.LineAt(fr.PC),
			PC:     fr.PC,
			Vars:   in.FrameVars(fr),
			Parent: parent,
		}
		parent = cf
	}
	return parent
}

// Globals converts the program's global variables, hiding runtime internals
// (names starting with __).
func (in *Inspector) Globals(includeInternal bool) []*core.Variable {
	var out []*core.Variable
	for _, g := range in.d.prog.Globals {
		if !includeInternal && strings.HasPrefix(g.Name, "__") {
			continue
		}
		out = append(out, &core.Variable{
			Name:  g.Name,
			Value: in.ValueAt(uint64(g.Offset), g.Type),
		})
	}
	return out
}

// State assembles a full snapshot of frames and globals. It carries no
// pause reason: what a stop means is the tracker's to say.
func (d *Debugger) State() *core.State {
	in := d.NewInspector()
	return &core.State{
		Frame:   in.Frame(),
		Globals: in.Globals(false),
	}
}
