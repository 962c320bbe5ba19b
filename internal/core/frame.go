package core

import (
	"fmt"
	"strings"
)

// Variable is a named slot (local, argument, or global) holding a Value.
type Variable struct {
	// Name is the variable's source-level name.
	Name string
	// Value is the variable's current value. In both language models of
	// the paper every variable slot is itself a small piece of storage;
	// for MiniPy variables the Value is a Ref into the heap, for MiniC
	// the Value may live directly in the frame.
	Value *Value
}

// String renders "name = value".
func (v *Variable) String() string {
	return fmt.Sprintf("%s = %s", v.Name, v.Value)
}

// Frame is one activation record of the paused inferior.
type Frame struct {
	// Name is the function name of the frame ("main", "fib", ...).
	Name string
	// Depth is the frame's position in the call stack; the innermost
	// (currently executing) frame has the largest depth and the program
	// entry frame has depth 0.
	Depth int
	// File is the source file of the frame's current position.
	File string
	// Line is the source line about to be executed (innermost frame) or
	// the line of the pending call (outer frames). 1-based.
	Line int
	// PC is the machine program counter for compiled inferiors; zero for
	// interpreted ones.
	PC uint64
	// Vars lists the frame's variables in declaration order.
	Vars []*Variable
	// Parent is the caller's frame, or nil for the entry frame.
	Parent *Frame
}

// Variables returns the frame's variables as a name-indexed map, mirroring
// the paper's frame.variables dictionary. Declaration order is preserved in
// Vars; use this map for lookup.
func (f *Frame) Variables() map[string]*Variable {
	m := make(map[string]*Variable, len(f.Vars))
	for _, v := range f.Vars {
		m[v.Name] = v
	}
	return m
}

// Lookup returns the named variable in this frame, or nil.
func (f *Frame) Lookup(name string) *Variable {
	for _, v := range f.Vars {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// Lookup resolves a variable reference parsed by ParseVarRef: scope ""
// reads the innermost frame, then the globals; "::" reads the globals; a
// function name reads that function's innermost activation. owner is the
// function of the frame that holds the variable, "" for a global.
func (s *State) Lookup(scope, name string) (v *Value, owner string, ok bool) {
	if scope != "" && scope != "::" {
		for fr := s.Frame; fr != nil; fr = fr.Parent {
			if fr.Name == scope {
				if va := fr.Lookup(name); va != nil {
					return va.Value, fr.Name, true
				}
				return nil, "", false
			}
		}
		return nil, "", false
	}
	if scope == "" && s.Frame != nil {
		if va := s.Frame.Lookup(name); va != nil {
			return va.Value, s.Frame.Name, true
		}
	}
	for _, g := range s.Globals {
		if g.Name == name {
			return g.Value, "", true
		}
	}
	return nil, "", false
}

// Stack returns the frames from this frame outward to the entry frame,
// innermost first.
func (f *Frame) Stack() []*Frame {
	var s []*Frame
	for fr := f; fr != nil; fr = fr.Parent {
		s = append(s, fr)
	}
	return s
}

// String renders a one-line summary: "name at file:line (depth d)".
func (f *Frame) String() string {
	return fmt.Sprintf("%s at %s:%d (depth %d)", f.Name, f.File, f.Line, f.Depth)
}

// Backtrace renders a multi-line backtrace with variables, innermost frame
// first, suitable for terminal tools and golden tests.
func (f *Frame) Backtrace() string {
	var b strings.Builder
	for _, fr := range f.Stack() {
		fmt.Fprintf(&b, "#%d %s at %s:%d\n", fr.Depth, fr.Name, fr.File, fr.Line)
		for _, v := range fr.Vars {
			fmt.Fprintf(&b, "    %s\n", v)
		}
	}
	return b.String()
}

// Equal reports deep equality of two frames including their parents.
func (f *Frame) Equal(o *Frame) bool {
	if f == nil || o == nil {
		return f == o
	}
	if f.Name != o.Name || f.Depth != o.Depth || f.File != o.File ||
		f.Line != o.Line || f.PC != o.PC || len(f.Vars) != len(o.Vars) {
		return false
	}
	for i := range f.Vars {
		if f.Vars[i].Name != o.Vars[i].Name ||
			!f.Vars[i].Value.Equal(o.Vars[i].Value) {
			return false
		}
	}
	return f.Parent.Equal(o.Parent)
}
