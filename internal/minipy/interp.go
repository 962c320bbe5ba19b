package minipy

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Event is the kind of a trace-hook notification, mirroring the events of
// CPython's sys.settrace that the paper's Python tracker consumes.
type Event int

const (
	// EventCall fires just after a function frame is entered, with
	// parameters bound (so arguments are inspectable).
	EventCall Event = iota
	// EventLine fires just before a source line executes.
	EventLine
	// EventReturn fires just before a function returns; the return value
	// is passed to the hook.
	EventReturn
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EventCall:
		return "call"
	case EventLine:
		return "line"
	case EventReturn:
		return "return"
	}
	return fmt.Sprintf("Event(%d)", int(e))
}

// TraceFunc is the trace hook registered with Interp.SetTrace. Returning a
// non-nil error aborts the inferior (used by the tracker's Terminate).
type TraceFunc func(fr *RTFrame, ev Event, retval *Object) error

// Scope is an insertion-ordered name -> object binding set. A scope may be
// backed by a compile-time symtab (slot array, used by the bytecode engine)
// in addition to the dynamic map; slot i holds the binding of syms.names[i],
// nil meaning unbound. Names outside the symtab live in the map, so
// dynamically injected bindings keep working.
type Scope struct {
	names []string
	vals  map[string]*Object
	// clock, when non-nil, points at the owning interpreter's mutation
	// epoch; every binding write advances it (the scope write barrier).
	clock *uint64
	syms  *symtab
	slots []*Object
}

// NewScope returns an empty scope.
func NewScope() *Scope {
	return &Scope{vals: map[string]*Object{}}
}

// Get looks a name up.
func (s *Scope) Get(name string) (*Object, bool) {
	if s.syms != nil {
		if i, ok := s.syms.index[name]; ok {
			v := s.slots[i]
			return v, v != nil
		}
	}
	v, ok := s.vals[name]
	return v, ok
}

// Set binds a name, preserving first-assignment order.
func (s *Scope) Set(name string, v *Object) {
	if s.syms != nil {
		if i, ok := s.syms.index[name]; ok {
			s.setSlot(i, v)
			return
		}
	}
	if s.clock != nil {
		*s.clock++
	}
	if s.vals == nil {
		s.vals = map[string]*Object{}
	}
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] = v
}

// setSlot writes slot i, advancing the mutation clock — the slot-path write
// barrier, equivalent to Set for a symtab-resolved name.
func (s *Scope) setSlot(i int, v *Object) {
	if s.clock != nil {
		*s.clock++
	}
	if s.slots[i] == nil {
		s.names = append(s.names, s.syms.names[i])
	}
	s.slots[i] = v
}

// attachSlots backs the scope with a symtab, migrating existing map bindings
// of symtab names into their slots. Binding order is preserved.
func (s *Scope) attachSlots(st *symtab) {
	if s.syms == st {
		return
	}
	s.syms = st
	s.slots = make([]*Object, len(st.names))
	for i, n := range st.names {
		if v, ok := s.vals[n]; ok {
			s.slots[i] = v
			delete(s.vals, n)
		}
	}
}

// Delete removes a binding.
func (s *Scope) Delete(name string) {
	if s.syms != nil {
		if i, ok := s.syms.index[name]; ok {
			if s.slots[i] == nil {
				return
			}
			if s.clock != nil {
				*s.clock++
			}
			s.slots[i] = nil
			for j, n := range s.names {
				if n == name {
					s.names = append(s.names[:j], s.names[j+1:]...)
					break
				}
			}
			return
		}
	}
	if _, ok := s.vals[name]; !ok {
		return
	}
	if s.clock != nil {
		*s.clock++
	}
	delete(s.vals, name)
	for i, n := range s.names {
		if n == name {
			s.names = append(s.names[:i], s.names[i+1:]...)
			break
		}
	}
}

// Names returns the bound names in first-assignment order.
func (s *Scope) Names() []string { return append([]string(nil), s.names...) }

// Len returns the number of bindings.
func (s *Scope) Len() int { return len(s.names) }

// Slot returns the symtab slot index of name, or -1 when the scope has no
// attached symtab (the tree walker's scopes, or the globals before the
// bytecode engine starts the module) or the name is outside it. A
// non-negative index is stable for the scope's lifetime, so trackers may
// cache it and read the binding with At instead of a map lookup.
func (s *Scope) Slot(name string) int {
	if s.syms != nil {
		if i, ok := s.syms.index[name]; ok {
			return i
		}
	}
	return -1
}

// At returns the object bound in slot i (from Slot), or nil while the name
// is unbound.
func (s *Scope) At(i int) *Object { return s.slots[i] }

// RTFrame is a live activation record of the MiniPy interpreter.
type RTFrame struct {
	// Name is the function name, or "<module>" for the module frame.
	Name string
	// Fn is the running function; nil for the module frame.
	Fn *Function
	// Locals holds the frame's variables. For the module frame this is
	// the globals scope itself.
	Locals *Scope
	// Parent is the calling frame.
	Parent *RTFrame
	// Line is the current source line.
	Line int
	// Depth is the frame's call depth; the module frame has depth 0.
	Depth int
	// globalDecls lists names declared `global` in this frame.
	globalDecls map[string]bool
}

// RuntimeError is a MiniPy execution failure (the analog of an uncaught
// Python exception).
type RuntimeError struct {
	File string
	Line int
	Msg  string
}

// Error implements error.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// exitSignal is raised by the exit() builtin.
type exitSignal struct{ code int }

func (e exitSignal) Error() string { return fmt.Sprintf("SystemExit(%d)", e.code) }

// control-flow signals inside statement execution
type ctrlSignal int

const (
	ctrlNone ctrlSignal = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// Engine selects the execution engine behind Run.
type Engine int

const (
	// EngineVM (the default) compiles the module to bytecode and runs the
	// dispatch loop in vm.go.
	EngineVM Engine = iota
	// EngineAST walks the tree directly — the original interpreter, kept
	// as the differential-testing reference and escape hatch.
	EngineAST
)

// Interp executes a MiniPy module with optional trace hooks.
type Interp struct {
	module *Module
	// Globals is the module scope; exported for inspection by trackers.
	Globals *Scope

	trace  TraceFunc
	stdout io.Writer
	stderr io.Writer
	// stdinRaw is the configured input source; stdin is the buffered
	// reader over it, built lazily on the first input() call so programs
	// that never read pay for no buffer.
	stdinRaw io.Reader
	stdin    *bufio.Reader

	nextID uint64
	noneO  *Object
	trueO  *Object
	falseO *Object

	cur    *RTFrame
	retval *Object // value being returned, for EventReturn

	engine Engine
	prog   *Program
	consts []*Object // prog.consts materialized for this interpreter

	// epoch is the mutation clock: advanced by every scope binding write
	// and every in-place heap mutation (the write barriers). An unchanged
	// epoch guarantees the program state is identical.
	epoch uint64
	// heapClock counts in-place heap mutations only (stamp advances it,
	// binding writes do not). It keys the ReachableEpoch memo: a binding
	// write changes which object a name points to, never what is reachable
	// from an existing object or any object's stamp.
	heapClock uint64
	// visitStamp numbers ReachableEpoch walks for cycle detection.
	visitStamp uint64

	// MaxSteps bounds the number of line events to catch runaway
	// programs; zero means the default of 5 million.
	MaxSteps int64
	steps    int64
	// stepLimit is MaxSteps with the default applied, resolved once per
	// Run so the per-line budget check is a single compare.
	stepLimit int64

	// MaxSeqElems, when positive, bounds the element count of sequences
	// built by repetition and range() — a memory guard for fuzzing, off
	// by default.
	MaxSeqElems int
}

const (
	smallIntMin = -5
	smallIntMax = 256
)

// sharedInts interns the CPython-style small-integer range [-5, 256] once per
// process. The objects carry ID 0 and epoch 0 and are shared by every
// interpreter, which is only sound because nothing ever writes to a scalar
// object after creation: ints are immutable, the write barriers stamp only
// containers, and ReachableEpoch treats scalars as leaves (no visit marks, no
// memo fields) precisely so concurrent interpreters can touch these without a
// data race. ID 0 also opts them out of the Converter's identity memo and
// makes id() report 0, matching their "no per-interpreter identity" nature.
var sharedInts [smallIntMax - smallIntMin + 1]Object

func init() {
	for i := range sharedInts {
		sharedInts[i] = Object{Kind: OInt, I: int64(i) + smallIntMin}
	}
}

// NewInterp builds an interpreter for the module.
func NewInterp(m *Module) *Interp {
	in := &Interp{
		module: m,
		// The module scope is born with room for the 25 builtins plus a
		// handful of user globals, so installing them never rehashes.
		Globals: &Scope{
			vals:  make(map[string]*Object, 32),
			names: make([]string, 0, 32),
		},
		stdout:    io.Discard,
		stderr:    io.Discard,
		MaxSteps:  5_000_000,
		stepLimit: 5_000_000,
	}
	in.Globals.clock = &in.epoch
	in.noneO = in.alloc(&Object{Kind: ONone})
	in.trueO = in.alloc(&Object{Kind: OBool, B: true})
	in.falseO = in.alloc(&Object{Kind: OBool, B: false})
	installBuiltins(in)
	return in
}

// SetTrace registers the trace hook (nil disables tracing).
func (in *Interp) SetTrace(f TraceFunc) { in.trace = f }

// SetEngine selects the execution engine; must be called before Run.
func (in *Interp) SetEngine(e Engine) { in.engine = e }

// SetStdout routes program output.
func (in *Interp) SetStdout(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	in.stdout = w
}

// SetStderr routes error output.
func (in *Interp) SetStderr(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	in.stderr = w
}

// SetStdin provides program input for the input() builtin.
func (in *Interp) SetStdin(r io.Reader) {
	in.stdinRaw = r
	in.stdin = nil
}

// stdinReader returns the buffered stdin, building it on first use.
func (in *Interp) stdinReader() *bufio.Reader {
	if in.stdin == nil {
		r := in.stdinRaw
		if r == nil {
			r = strings.NewReader("")
		}
		in.stdin = bufio.NewReader(r)
	}
	return in.stdin
}

// SetArgs exposes argv to the program as the global list `argv`.
func (in *Interp) SetArgs(args []string) {
	elems := make([]*Object, len(args))
	for i, a := range args {
		elems[i] = in.newStr(a)
	}
	in.Globals.Set("argv", in.newList(elems))
}

// CurrentFrame returns the interpreter's innermost live frame.
func (in *Interp) CurrentFrame() *RTFrame { return in.cur }

// Steps returns the number of line events fired so far — the supervision
// layer's step-budget clock.
func (in *Interp) Steps() int64 { return in.steps }

// AllocCount returns the number of heap objects allocated so far. MiniPy
// never frees, so this is also the live-object count the heap budget
// bounds.
func (in *Interp) AllocCount() int64 { return int64(in.nextID) }

// alloc assigns the next object id and stamps the allocation epoch.
func (in *Interp) alloc(o *Object) *Object {
	in.nextID++
	o.ID = in.nextID
	o.Epoch = in.epoch
	return o
}

// stamp records an in-place mutation of o: the write barrier advances the
// interpreter's epoch and heap clock and stamps the mutated object with the
// epoch. Every container write must come through here: it is what
// invalidates the ReachableEpoch memo.
func (in *Interp) stamp(o *Object) {
	in.epoch++
	in.heapClock++
	o.Epoch = in.epoch
}

// newScope returns a scope wired to the interpreter's mutation clock.
func (in *Interp) newScope() *Scope {
	s := NewScope()
	s.clock = &in.epoch
	return s
}

// Epoch returns the interpreter's current mutation epoch. It is advanced by
// every scope binding write and every in-place object mutation, so trackers
// can use an unchanged epoch as proof that no program state moved.
func (in *Interp) Epoch() uint64 { return in.epoch }

// ReachableEpoch returns the maximum mutation epoch of o and of every object
// reachable from it through list/tuple elements, dict values, instance
// attributes and bound receivers. Watch checking uses it as an allocation-free
// dirty test: a result not larger than the epoch of the last snapshot proves
// the watched value graph is unchanged. Results are memoized on the walked
// root and stay valid until the heap clock advances, so a run of lines that
// only rebind names answers from the memo whatever the size of the graph;
// dict keys are skipped because MiniPy keys are restricted to immutable
// (hashable) objects.
func (in *Interp) ReachableEpoch(o *Object) uint64 {
	if o == nil {
		return 0
	}
	switch o.Kind {
	case OList, OTuple, ODict, OInstance, OMethod:
	default:
		// Scalar leaf: nothing is reachable from it and it is never
		// mutated in place, so its own stamp is the answer. Taking this
		// path without touching the memo fields is what keeps shared
		// immutable objects (sharedInts) writable-by-nobody.
		return o.Epoch
	}
	if o.reachAt == in.heapClock+1 {
		return o.reachMax
	}
	in.visitStamp++
	m := in.reachEpoch(o, in.visitStamp)
	// Memoize only at the root of the walk: a root's result covers its
	// whole reachable closure, while an interior node of a cycle would
	// cache a value truncated at the back edge.
	o.reachAt = in.heapClock + 1
	o.reachMax = m
	return m
}

func (in *Interp) reachEpoch(o *Object, visit uint64) uint64 {
	switch o.Kind {
	case OList, OTuple, ODict, OInstance, OMethod:
	default:
		return o.Epoch // scalar leaf: no children, no memo, no visit mark
	}
	if o.visit == visit {
		return 0 // cycle: the first visit accounts for this object
	}
	o.visit = visit
	if o.reachAt == in.heapClock+1 {
		return o.reachMax
	}
	max := o.Epoch
	switch o.Kind {
	case OList, OTuple:
		for _, e := range o.L {
			if m := in.reachEpoch(e, visit); m > max {
				max = m
			}
		}
	case ODict:
		for _, hk := range o.D.keys {
			if m := in.reachEpoch(o.D.vobj[hk], visit); m > max {
				max = m
			}
		}
	case OInstance:
		for _, hk := range o.Attrs.keys {
			if m := in.reachEpoch(o.Attrs.vobj[hk], visit); m > max {
				max = m
			}
		}
	case OMethod:
		if o.Self != nil {
			if m := in.reachEpoch(o.Self, visit); m > max {
				max = m
			}
		}
	}
	return max
}

func (in *Interp) newInt(v int64) *Object {
	if v >= smallIntMin && v <= smallIntMax {
		return &sharedInts[v-smallIntMin]
	}
	return in.alloc(&Object{Kind: OInt, I: v})
}
func (in *Interp) newFloat(v float64) *Object { return in.alloc(&Object{Kind: OFloat, F: v}) }
func (in *Interp) newStr(v string) *Object    { return in.alloc(&Object{Kind: OStr, S: v}) }
func (in *Interp) newBool(v bool) *Object {
	if v {
		return in.trueO
	}
	return in.falseO
}
func (in *Interp) newList(elems []*Object) *Object {
	return in.alloc(&Object{Kind: OList, L: elems})
}
func (in *Interp) newTuple(elems []*Object) *Object {
	return in.alloc(&Object{Kind: OTuple, L: elems})
}
func (in *Interp) newDict() *Object {
	return in.alloc(&Object{Kind: ODict, D: NewOrderedDict()})
}

func (in *Interp) rtErr(line int, format string, args ...any) error {
	return &RuntimeError{File: in.module.File, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Run executes the module to completion and returns the exit code: 0 on
// normal completion, the exit() argument if called, 1 on a runtime error
// (with a message on stderr). Trace-hook errors are propagated verbatim.
func (in *Interp) Run() (int, error) {
	mod := &RTFrame{Name: "<module>", Locals: in.Globals, Depth: 0, globalDecls: map[string]bool{}}
	in.cur = mod
	in.stepLimit = in.MaxSteps
	if in.stepLimit == 0 {
		in.stepLimit = 5_000_000
	}
	var err error
	if in.engine == EngineAST {
		err = in.execBody(mod, in.module.Body)
	} else {
		err = in.runModuleVM(mod)
	}
	switch e := err.(type) {
	case nil:
		// CPython fires a final return event for the module frame;
		// trackers rely on it to observe mutations made by the last
		// statement (e.g. a watched variable written on the program's
		// final line).
		if in.trace != nil {
			if terr := in.trace(mod, EventReturn, in.noneO); terr != nil {
				return 1, terr
			}
		}
		return 0, nil
	case exitSignal:
		return e.code, nil
	case *RuntimeError:
		fmt.Fprintf(in.stderr, "Traceback (most recent call last):\n  %s\n", e)
		return 1, nil
	default:
		return 1, err
	}
}

func (in *Interp) fireLine(fr *RTFrame, line int) error {
	fr.Line = line
	in.steps++
	if in.steps > in.stepLimit {
		return in.rtErr(line, "step budget exceeded (%d line events)", in.stepLimit)
	}
	if in.trace != nil {
		return in.trace(fr, EventLine, nil)
	}
	return nil
}

func (in *Interp) execBody(fr *RTFrame, body []Stmt) error {
	for _, st := range body {
		sig, err := in.execStmt(fr, st)
		if err != nil {
			return err
		}
		switch sig {
		case ctrlReturn:
			return nil
		case ctrlBreak:
			return in.rtErr(st.Pos(), "'break' outside loop")
		case ctrlContinue:
			return in.rtErr(st.Pos(), "'continue' outside loop")
		}
	}
	return nil
}

// execBlock runs a nested statement list, passing signals upward.
func (in *Interp) execBlock(fr *RTFrame, body []Stmt) (ctrlSignal, error) {
	for _, st := range body {
		sig, err := in.execStmt(fr, st)
		if err != nil || sig != ctrlNone {
			return sig, err
		}
	}
	return ctrlNone, nil
}

func (in *Interp) execStmt(fr *RTFrame, st Stmt) (ctrlSignal, error) {
	switch s := st.(type) {
	case *FuncDef:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		fn := &Function{
			Name: s.Name, Params: s.Params, Body: s.Body,
			DefLine: s.Pos(), EndLine: s.EndLine,
			GlobalNames: collectGlobals(s.Body),
		}
		in.assignName(fr, s.Name, in.alloc(&Object{Kind: OFunc, Fn: fn}))
		return ctrlNone, nil

	case *ClassDef:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		cls := &Class{Name: s.Name, Methods: map[string]*Object{}, DefLine: s.Pos()}
		for _, bs := range s.Body {
			switch m := bs.(type) {
			case *FuncDef:
				fn := &Function{
					Name: m.Name, Params: m.Params, Body: m.Body,
					DefLine: m.Pos(), EndLine: m.EndLine,
					GlobalNames: collectGlobals(m.Body),
				}
				cls.Methods[m.Name] = in.alloc(&Object{Kind: OFunc, Fn: fn})
				cls.MethodOrder = append(cls.MethodOrder, m.Name)
			case *PassStmt:
				// allowed
			case *AssignStmt:
				if len(m.Targets) == 1 {
					if n, ok := m.Targets[0].(*NameExpr); ok {
						v, err := in.eval(fr, m.Value)
						if err != nil {
							return ctrlNone, err
						}
						cls.Methods[n.Name] = v
						cls.MethodOrder = append(cls.MethodOrder, n.Name)
						continue
					}
				}
				return ctrlNone, in.rtErr(m.Pos(), "unsupported statement in class body")
			default:
				return ctrlNone, in.rtErr(bs.Pos(), "unsupported statement in class body")
			}
		}
		in.assignName(fr, s.Name, in.alloc(&Object{Kind: OClass, Cls: cls}))
		return ctrlNone, nil

	case *ExprStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		_, err := in.eval(fr, s.X)
		return ctrlNone, err

	case *AssignStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		v, err := in.eval(fr, s.Value)
		if err != nil {
			return ctrlNone, err
		}
		for _, tgt := range s.Targets {
			if err := in.assign(fr, tgt, v); err != nil {
				return ctrlNone, err
			}
		}
		return ctrlNone, nil

	case *AugAssignStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		old, err := in.eval(fr, s.Target)
		if err != nil {
			return ctrlNone, err
		}
		rhs, err := in.eval(fr, s.Value)
		if err != nil {
			return ctrlNone, err
		}
		// Python in-place semantics on lists: `xs += ys` extends in place.
		if s.Op == Plus && old.Kind == OList && rhs.Kind == OList {
			old.L = append(old.L, rhs.L...)
			in.stamp(old)
			return ctrlNone, nil
		}
		nv, err := in.binOp(s.Pos(), s.Op, old, rhs)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, in.assign(fr, s.Target, nv)

	case *DelStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		return ctrlNone, in.deleteTarget(fr, s.Target)

	case *IfStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		c, err := in.eval(fr, s.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if c.Truthy() {
			return in.execBlock(fr, s.Body)
		}
		return in.execBlock(fr, s.Else)

	case *WhileStmt:
		for {
			if err := in.fireLine(fr, s.Pos()); err != nil {
				return ctrlNone, err
			}
			c, err := in.eval(fr, s.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !c.Truthy() {
				return ctrlNone, nil
			}
			sig, err := in.execBlock(fr, s.Body)
			if err != nil {
				return ctrlNone, err
			}
			switch sig {
			case ctrlBreak:
				return ctrlNone, nil
			case ctrlReturn:
				return ctrlReturn, nil
			}
		}

	case *ForStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		iter, err := in.eval(fr, s.Iter)
		if err != nil {
			return ctrlNone, err
		}
		items, err := in.iterate(s.Pos(), iter)
		if err != nil {
			return ctrlNone, err
		}
		for i, item := range items {
			if i > 0 {
				// Python re-traces the `for` line on each iteration.
				if err := in.fireLine(fr, s.Pos()); err != nil {
					return ctrlNone, err
				}
			}
			if err := in.assign(fr, s.Target, item); err != nil {
				return ctrlNone, err
			}
			sig, err := in.execBlock(fr, s.Body)
			if err != nil {
				return ctrlNone, err
			}
			switch sig {
			case ctrlBreak:
				return ctrlNone, nil
			case ctrlReturn:
				return ctrlReturn, nil
			}
		}
		return ctrlNone, nil

	case *ReturnStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		if fr.Fn == nil {
			return ctrlNone, in.rtErr(s.Pos(), "'return' outside function")
		}
		val := in.noneO
		if s.Value != nil {
			v, err := in.eval(fr, s.Value)
			if err != nil {
				return ctrlNone, err
			}
			val = v
		}
		in.retval = val
		return ctrlReturn, nil

	case *BreakStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		return ctrlBreak, nil

	case *ContinueStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		return ctrlContinue, nil

	case *PassStmt:
		return ctrlNone, in.fireLine(fr, s.Pos())

	case *GlobalStmt:
		if err := in.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		for _, n := range s.Names {
			fr.globalDecls[n] = true
		}
		return ctrlNone, nil
	}
	return ctrlNone, in.rtErr(st.Pos(), "unsupported statement %T", st)
}

func collectGlobals(body []Stmt) map[string]bool {
	out := map[string]bool{}
	var walk func([]Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *GlobalStmt:
				for _, n := range st.Names {
					out[n] = true
				}
			case *IfStmt:
				walk(st.Body)
				walk(st.Else)
			case *WhileStmt:
				walk(st.Body)
			case *ForStmt:
				walk(st.Body)
			}
		}
	}
	walk(body)
	return out
}

// assignName writes a name respecting `global` declarations.
func (in *Interp) assignName(fr *RTFrame, name string, v *Object) {
	if fr.globalDecls[name] {
		in.Globals.Set(name, v)
		return
	}
	fr.Locals.Set(name, v)
}

func (in *Interp) assign(fr *RTFrame, target Expr, v *Object) error {
	switch t := target.(type) {
	case *NameExpr:
		in.assignName(fr, t.Name, v)
		return nil
	case *IndexExpr:
		obj, err := in.eval(fr, t.X)
		if err != nil {
			return err
		}
		idx, err := in.eval(fr, t.Index)
		if err != nil {
			return err
		}
		return in.setIndex(t.Pos(), obj, idx, v)
	case *AttrExpr:
		obj, err := in.eval(fr, t.X)
		if err != nil {
			return err
		}
		if obj.Kind != OInstance {
			return in.rtErr(t.Pos(), "'%s' object has no settable attribute '%s'", obj.TypeName(), t.Name)
		}
		obj.Attrs.SetStr(t.Name, v)
		in.stamp(obj)
		return nil
	case *TupleLitExpr:
		return in.unpack(fr, t, v)
	case *ListLitExpr:
		return in.unpack(fr, &TupleLitExpr{pos: pos{t.Pos()}, Elems: t.Elems}, v)
	}
	return in.rtErr(target.Pos(), "cannot assign to %T", target)
}

func (in *Interp) unpack(fr *RTFrame, t *TupleLitExpr, v *Object) error {
	var items []*Object
	switch v.Kind {
	case OList, OTuple:
		items = v.L
	case OStr:
		for _, r := range v.S {
			items = append(items, in.newStr(string(r)))
		}
	default:
		return in.rtErr(t.Pos(), "cannot unpack non-sequence %s", v.TypeName())
	}
	if len(items) != len(t.Elems) {
		return in.rtErr(t.Pos(), "cannot unpack %d values into %d targets", len(items), len(t.Elems))
	}
	for i, el := range t.Elems {
		if err := in.assign(fr, el, items[i]); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) setIndex(line int, obj, idx, v *Object) error {
	switch obj.Kind {
	case OList:
		i, err := in.seqIndex(line, obj, idx)
		if err != nil {
			return err
		}
		obj.L[i] = v
		in.stamp(obj)
		return nil
	case ODict:
		if err := obj.D.Set(idx, v); err != nil {
			return in.rtErr(line, "%s", err)
		}
		in.stamp(obj)
		return nil
	case OTuple:
		return in.rtErr(line, "'tuple' object does not support item assignment")
	case OStr:
		return in.rtErr(line, "'str' object does not support item assignment")
	}
	return in.rtErr(line, "'%s' object is not subscriptable", obj.TypeName())
}

func (in *Interp) deleteTarget(fr *RTFrame, target Expr) error {
	switch t := target.(type) {
	case *NameExpr:
		if _, ok := fr.Locals.Get(t.Name); ok {
			fr.Locals.Delete(t.Name)
			return nil
		}
		if _, ok := in.Globals.Get(t.Name); ok && fr.globalDecls[t.Name] {
			in.Globals.Delete(t.Name)
			return nil
		}
		return in.rtErr(t.Pos(), "name '%s' is not defined", t.Name)
	case *IndexExpr:
		obj, err := in.eval(fr, t.X)
		if err != nil {
			return err
		}
		idx, err := in.eval(fr, t.Index)
		if err != nil {
			return err
		}
		switch obj.Kind {
		case OList:
			i, err := in.seqIndex(t.Pos(), obj, idx)
			if err != nil {
				return err
			}
			obj.L = append(obj.L[:i], obj.L[i+1:]...)
			in.stamp(obj)
			return nil
		case ODict:
			ok, err := obj.D.Delete(idx)
			if err != nil {
				return in.rtErr(t.Pos(), "%s", err)
			}
			if !ok {
				return in.rtErr(t.Pos(), "KeyError: %s", idx.Repr())
			}
			in.stamp(obj)
			return nil
		}
		return in.rtErr(t.Pos(), "cannot delete items of '%s'", obj.TypeName())
	}
	return in.rtErr(target.Pos(), "cannot delete %T", target)
}

// seqIndex resolves a (possibly negative) index object into a bounds-checked
// Go index.
func (in *Interp) seqIndex(line int, seq, idx *Object) (int, error) {
	if idx.Kind != OInt && idx.Kind != OBool {
		return 0, in.rtErr(line, "indices must be integers, not %s", idx.TypeName())
	}
	i := idx.I
	if idx.Kind == OBool {
		if idx.B {
			i = 1
		} else {
			i = 0
		}
	}
	var n int64
	if seq.Kind == OStr {
		n = int64(len([]rune(seq.S)))
	} else {
		n = int64(len(seq.L))
	}
	if i < 0 {
		i += n
	}
	if i < 0 || i >= n {
		return 0, in.rtErr(line, "%s index out of range", seq.TypeName())
	}
	return int(i), nil
}

func (in *Interp) iterate(line int, o *Object) ([]*Object, error) {
	switch o.Kind {
	case OList, OTuple:
		return append([]*Object(nil), o.L...), nil
	case OStr:
		var out []*Object
		for _, r := range o.S {
			out = append(out, in.newStr(string(r)))
		}
		return out, nil
	case ODict:
		return o.D.Keys(), nil
	}
	return nil, in.rtErr(line, "'%s' object is not iterable", o.TypeName())
}

// lookupName resolves a name: locals, then globals, then error.
func (in *Interp) lookupName(fr *RTFrame, line int, name string) (*Object, error) {
	if fr.Fn != nil && !fr.globalDecls[name] {
		if v, ok := fr.Locals.Get(name); ok {
			return v, nil
		}
	}
	if v, ok := in.Globals.Get(name); ok {
		return v, nil
	}
	if fr.Fn == nil {
		if v, ok := fr.Locals.Get(name); ok {
			return v, nil
		}
	}
	return nil, in.rtErr(line, "name '%s' is not defined", name)
}

// CallFunction invokes a callable object with arguments; exported for the
// tracker's expression evaluation extensions.
func (in *Interp) CallFunction(line int, fn *Object, args []*Object) (*Object, error) {
	switch fn.Kind {
	case OBuiltin:
		ret, err := fn.Bi.Fn(in, args)
		if err != nil {
			switch err.(type) {
			case exitSignal, *RuntimeError:
				return nil, err
			}
			return nil, in.rtErr(line, "%s", err)
		}
		return ret, nil
	case OFunc:
		return in.callUser(line, fn.Fn, args)
	case OMethod:
		return in.callUser(line, fn.Fn, append([]*Object{fn.Self}, args...))
	case OClass:
		inst := in.alloc(&Object{Kind: OInstance, Cls: fn.Cls, Attrs: NewOrderedDict()})
		if init, ok := fn.Cls.Methods["__init__"]; ok && init.Kind == OFunc {
			if _, err := in.callUser(line, init.Fn, append([]*Object{inst}, args...)); err != nil {
				return nil, err
			}
		} else if len(args) != 0 {
			return nil, in.rtErr(line, "%s() takes no arguments", fn.Cls.Name)
		}
		return inst, nil
	}
	return nil, in.rtErr(line, "'%s' object is not callable", fn.TypeName())
}

func (in *Interp) callUser(line int, fn *Function, args []*Object) (*Object, error) {
	if fn.code != nil {
		return in.callUserVM(line, fn, args)
	}
	if len(args) != len(fn.Params) {
		return nil, in.rtErr(line, "%s() takes %d arguments but %d were given",
			fn.Name, len(fn.Params), len(args))
	}
	fr := &RTFrame{
		Name: fn.Name, Fn: fn, Locals: in.newScope(),
		Parent: in.cur, Line: fn.DefLine,
		Depth: in.cur.Depth + 1, globalDecls: map[string]bool{},
	}
	for n := range fn.GlobalNames {
		fr.globalDecls[n] = true
	}
	for i, p := range fn.Params {
		fr.Locals.Set(p, args[i])
	}
	in.cur = fr
	defer func() { in.cur = fr.Parent }()
	if in.trace != nil {
		if err := in.trace(fr, EventCall, nil); err != nil {
			return nil, err
		}
	}
	in.retval = in.noneO
	err := in.execBody(fr, fn.Body)
	if err != nil {
		return nil, err
	}
	ret := in.retval
	in.retval = in.noneO
	if in.trace != nil {
		if err := in.trace(fr, EventReturn, ret); err != nil {
			return nil, err
		}
	}
	return ret, nil
}

func (in *Interp) eval(fr *RTFrame, e Expr) (*Object, error) {
	switch x := e.(type) {
	case *NameExpr:
		return in.lookupName(fr, x.Pos(), x.Name)
	case *IntLitExpr:
		return in.newInt(x.Value), nil
	case *FloatLitExpr:
		return in.newFloat(x.Value), nil
	case *StrLitExpr:
		return in.newStr(x.Value), nil
	case *BoolLitExpr:
		return in.newBool(x.Value), nil
	case *NoneLitExpr:
		return in.noneO, nil
	case *ListLitExpr:
		elems := make([]*Object, len(x.Elems))
		for i, el := range x.Elems {
			v, err := in.eval(fr, el)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return in.newList(elems), nil
	case *TupleLitExpr:
		elems := make([]*Object, len(x.Elems))
		for i, el := range x.Elems {
			v, err := in.eval(fr, el)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return in.newTuple(elems), nil
	case *DictLitExpr:
		d := in.newDict()
		for i := range x.Keys {
			k, err := in.eval(fr, x.Keys[i])
			if err != nil {
				return nil, err
			}
			v, err := in.eval(fr, x.Vals[i])
			if err != nil {
				return nil, err
			}
			if err := d.D.Set(k, v); err != nil {
				return nil, in.rtErr(x.Pos(), "%s", err)
			}
		}
		return d, nil
	case *BinOpExpr:
		l, err := in.eval(fr, x.L)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(fr, x.R)
		if err != nil {
			return nil, err
		}
		return in.binOp(x.Pos(), x.Op, l, r)
	case *UnaryExpr:
		v, err := in.eval(fr, x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case Minus:
			switch v.Kind {
			case OInt:
				return in.newInt(-v.I), nil
			case OFloat:
				return in.newFloat(-v.F), nil
			case OBool:
				if v.B {
					return in.newInt(-1), nil
				}
				return in.newInt(0), nil
			}
			return nil, in.rtErr(x.Pos(), "bad operand type for unary -: '%s'", v.TypeName())
		case Plus:
			if n, ok := numVal(v); ok {
				_ = n
				return v, nil
			}
			return nil, in.rtErr(x.Pos(), "bad operand type for unary +: '%s'", v.TypeName())
		case KwNot:
			return in.newBool(!v.Truthy()), nil
		}
		return nil, in.rtErr(x.Pos(), "unsupported unary op %s", x.Op)
	case *BoolOpExpr:
		l, err := in.eval(fr, x.L)
		if err != nil {
			return nil, err
		}
		if x.Op == KwAnd {
			if !l.Truthy() {
				return l, nil
			}
			return in.eval(fr, x.R)
		}
		if l.Truthy() {
			return l, nil
		}
		return in.eval(fr, x.R)
	case *CompareExpr:
		l, err := in.eval(fr, x.First)
		if err != nil {
			return nil, err
		}
		for i, op := range x.Ops {
			r, err := in.eval(fr, x.Rest[i])
			if err != nil {
				return nil, err
			}
			ok, err := in.compare(x.Pos(), op, l, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				return in.falseO, nil
			}
			l = r
		}
		return in.trueO, nil
	case *CallExpr:
		fn, err := in.eval(fr, x.Fn)
		if err != nil {
			return nil, err
		}
		args := make([]*Object, len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(fr, a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return in.CallFunction(x.Pos(), fn, args)
	case *IndexExpr:
		obj, err := in.eval(fr, x.X)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(fr, x.Index)
		if err != nil {
			return nil, err
		}
		return in.getIndex(x.Pos(), obj, idx)
	case *SliceExpr:
		obj, err := in.eval(fr, x.X)
		if err != nil {
			return nil, err
		}
		return in.getSlice(fr, x, obj)
	case *AttrExpr:
		obj, err := in.eval(fr, x.X)
		if err != nil {
			return nil, err
		}
		return in.getAttr(x.Pos(), obj, x.Name)
	}
	return nil, in.rtErr(e.Pos(), "unsupported expression %T", e)
}

func (in *Interp) getIndex(line int, obj, idx *Object) (*Object, error) {
	switch obj.Kind {
	case OList, OTuple:
		i, err := in.seqIndex(line, obj, idx)
		if err != nil {
			return nil, err
		}
		return obj.L[i], nil
	case OStr:
		i, err := in.seqIndex(line, obj, idx)
		if err != nil {
			return nil, err
		}
		return in.newStr(string([]rune(obj.S)[i])), nil
	case ODict:
		v, ok, err := obj.D.Get(idx)
		if err != nil {
			return nil, in.rtErr(line, "%s", err)
		}
		if !ok {
			return nil, in.rtErr(line, "KeyError: %s", idx.Repr())
		}
		return v, nil
	}
	return nil, in.rtErr(line, "'%s' object is not subscriptable", obj.TypeName())
}

func (in *Interp) getSlice(fr *RTFrame, x *SliceExpr, obj *Object) (*Object, error) {
	var n int
	switch obj.Kind {
	case OList, OTuple:
		n = len(obj.L)
	case OStr:
		n = len([]rune(obj.S))
	default:
		return nil, in.rtErr(x.Pos(), "'%s' object is not sliceable", obj.TypeName())
	}
	bound := func(e Expr, def int) (int, error) {
		if e == nil {
			return def, nil
		}
		v, err := in.eval(fr, e)
		if err != nil {
			return 0, err
		}
		if v.Kind != OInt {
			return 0, in.rtErr(x.Pos(), "slice indices must be integers")
		}
		i := int(v.I)
		if i < 0 {
			i += n
		}
		if i < 0 {
			i = 0
		}
		if i > n {
			i = n
		}
		return i, nil
	}
	lo, err := bound(x.Lo, 0)
	if err != nil {
		return nil, err
	}
	hi, err := bound(x.Hi, n)
	if err != nil {
		return nil, err
	}
	if hi < lo {
		hi = lo
	}
	switch obj.Kind {
	case OList:
		return in.newList(append([]*Object(nil), obj.L[lo:hi]...)), nil
	case OTuple:
		return in.newTuple(append([]*Object(nil), obj.L[lo:hi]...)), nil
	default:
		return in.newStr(string([]rune(obj.S)[lo:hi])), nil
	}
}

func (in *Interp) compare(line int, op TokKind, l, r *Object) (bool, error) {
	switch op {
	case Eq:
		return pyEqual(l, r), nil
	case Ne:
		return !pyEqual(l, r), nil
	case Lt:
		ok, err := pyLess(l, r)
		if err != nil {
			return false, in.rtErr(line, "%s", err)
		}
		return ok, nil
	case Gt:
		ok, err := pyLess(r, l)
		if err != nil {
			return false, in.rtErr(line, "%s", err)
		}
		return ok, nil
	case Le:
		gt, err := pyLess(r, l)
		if err != nil {
			return false, in.rtErr(line, "%s", err)
		}
		return !gt, nil
	case Ge:
		lt, err := pyLess(l, r)
		if err != nil {
			return false, in.rtErr(line, "%s", err)
		}
		return !lt, nil
	case KwIn, NotIn:
		var found bool
		switch r.Kind {
		case OList, OTuple:
			for _, e := range r.L {
				if pyEqual(e, l) {
					found = true
					break
				}
			}
		case OStr:
			if l.Kind != OStr {
				return false, in.rtErr(line, "'in <string>' requires string as left operand")
			}
			found = strings.Contains(r.S, l.S)
		case ODict:
			_, ok, err := r.D.Get(l)
			if err != nil {
				return false, in.rtErr(line, "%s", err)
			}
			found = ok
		default:
			return false, in.rtErr(line, "argument of type '%s' is not iterable", r.TypeName())
		}
		if op == NotIn {
			return !found, nil
		}
		return found, nil
	}
	return false, in.rtErr(line, "unsupported comparison %s", op)
}

func (in *Interp) binOp(line int, op TokKind, l, r *Object) (*Object, error) {
	// Non-numeric overloads first.
	if op == Plus {
		switch {
		case l.Kind == OStr && r.Kind == OStr:
			return in.newStr(l.S + r.S), nil
		case l.Kind == OList && r.Kind == OList:
			return in.newList(append(append([]*Object(nil), l.L...), r.L...)), nil
		case l.Kind == OTuple && r.Kind == OTuple:
			return in.newTuple(append(append([]*Object(nil), l.L...), r.L...)), nil
		}
	}
	if op == Star {
		if seq, num, ok := seqAndInt(l, r); ok {
			return in.repeatSeq(line, seq, num)
		}
	}
	li, lInt := intVal(l)
	ri, rInt := intVal(r)
	lf, lNum := numVal(l)
	rf, rNum := numVal(r)
	if !lNum || !rNum {
		return nil, in.rtErr(line, "unsupported operand type(s) for %s: '%s' and '%s'",
			op, l.TypeName(), r.TypeName())
	}
	bothInt := lInt && rInt
	switch op {
	case Plus:
		if bothInt {
			return in.newInt(li + ri), nil
		}
		return in.newFloat(lf + rf), nil
	case Minus:
		if bothInt {
			return in.newInt(li - ri), nil
		}
		return in.newFloat(lf - rf), nil
	case Star:
		if bothInt {
			return in.newInt(li * ri), nil
		}
		return in.newFloat(lf * rf), nil
	case Slash:
		if rf == 0 {
			return nil, in.rtErr(line, "division by zero")
		}
		return in.newFloat(lf / rf), nil
	case DblSlash:
		if bothInt {
			if ri == 0 {
				return nil, in.rtErr(line, "integer division or modulo by zero")
			}
			return in.newInt(floorDiv(li, ri)), nil
		}
		if rf == 0 {
			return nil, in.rtErr(line, "float floor division by zero")
		}
		q := lf / rf
		fq := float64(int64(q))
		if q < 0 && q != fq {
			fq--
		}
		return in.newFloat(fq), nil
	case Percent:
		if bothInt {
			if ri == 0 {
				return nil, in.rtErr(line, "integer division or modulo by zero")
			}
			return in.newInt(pyMod(li, ri)), nil
		}
		if rf == 0 {
			return nil, in.rtErr(line, "float modulo")
		}
		m := lf - rf*float64(int64(lf/rf))
		if m != 0 && (m < 0) != (rf < 0) {
			m += rf
		}
		return in.newFloat(m), nil
	case StarStar:
		if bothInt && ri >= 0 {
			return in.newInt(ipow(li, ri)), nil
		}
		return in.newFloat(fpow(lf, rf)), nil
	}
	return nil, in.rtErr(line, "unsupported binary op %s", op)
}

func seqAndInt(l, r *Object) (seq, num *Object, ok bool) {
	isSeq := func(o *Object) bool { return o.Kind == OStr || o.Kind == OList || o.Kind == OTuple }
	if isSeq(l) && r.Kind == OInt {
		return l, r, true
	}
	if isSeq(r) && l.Kind == OInt {
		return r, l, true
	}
	return nil, nil, false
}

func (in *Interp) repeatSeq(line int, seq, num *Object) (*Object, error) {
	n := int(num.I)
	if n < 0 {
		n = 0
	}
	if in.MaxSeqElems > 0 {
		size := len(seq.L)
		if seq.Kind == OStr {
			size = len(seq.S)
		}
		if size > 0 && n > in.MaxSeqElems/size {
			return nil, in.rtErr(line, "repeated sequence too large (%d element cap)", in.MaxSeqElems)
		}
	}
	switch seq.Kind {
	case OStr:
		return in.newStr(strings.Repeat(seq.S, n)), nil
	case OList:
		out := make([]*Object, 0, len(seq.L)*n)
		for i := 0; i < n; i++ {
			out = append(out, seq.L...)
		}
		return in.newList(out), nil
	default:
		out := make([]*Object, 0, len(seq.L)*n)
		for i := 0; i < n; i++ {
			out = append(out, seq.L...)
		}
		return in.newTuple(out), nil
	}
}

func intVal(o *Object) (int64, bool) {
	switch o.Kind {
	case OInt:
		return o.I, true
	case OBool:
		if o.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func pyMod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

func ipow(base, exp int64) int64 {
	var out int64 = 1
	for exp > 0 {
		if exp&1 == 1 {
			out *= base
		}
		base *= base
		exp >>= 1
	}
	return out
}

func fpow(base, exp float64) float64 {
	// Minimal float power via exp/log is imprecise for common teaching
	// cases; implement by repeated squaring for integral exponents and
	// fall back to the math identity otherwise.
	if exp == float64(int64(exp)) {
		e := int64(exp)
		neg := e < 0
		if neg {
			e = -e
		}
		out := 1.0
		for e > 0 {
			if e&1 == 1 {
				out *= base
			}
			base *= base
			e >>= 1
		}
		if neg {
			return 1 / out
		}
		return out
	}
	return mathPow(base, exp)
}
