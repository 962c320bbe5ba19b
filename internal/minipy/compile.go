package minipy

import (
	"fmt"
	"sort"
)

// The compiler lowers a parsed Module to a Program (code.go) executed by the
// dispatch loop in vm.go. It is total: every parser-accepted module compiles.
// Constructs that are errors only when executed (break outside a loop,
// unsupported assignment targets, module-level return, ...) lower to an
// opRaise carrying the error message at the statement's line, so the program
// fails at the point of the trace stream where that statement runs.
//
// Name resolution happens here, once: the module scope and each function
// scope get a symtab of their statically known names, and name ops address
// slot indices instead of hashing strings at runtime. Names that cannot be
// resolved statically (reads of never-assigned globals) go through the
// map-path *_NAME ops, which keep the dynamic lookup.

// Compile lowers a module to bytecode. It always compiles fresh (the
// interpreter itself uses the memoized Module.program).
func Compile(m *Module) *Program {
	c := &compiler{
		prog:     &Program{module: m, modSyms: newSymtab()},
		constIdx: map[constant]int32{},
		nameIdx:  map[string]int32{},
		msgIdx:   map[string]int32{},
	}
	c.buildModuleSymtab(m)
	cb := c.newBuilder("<module>", nil, nil)
	cb.compileBody(m.Body)
	end := 0
	if len(m.Body) > 0 {
		end = m.Body[len(m.Body)-1].Pos()
	}
	cb.emit(opNone, 0, 0, end)
	cb.push(1)
	cb.emit(opReturn, 0, 0, end)
	cb.pop(1)
	c.prog.code = cb.finish()
	return c.prog
}

// program returns the module's compiled form, compiling on first use. The
// Program is immutable and interpreter-free, so it is shared by every Interp
// running the same Module.
func (m *Module) program() *Program {
	m.once.Do(func() { m.prog = Compile(m) })
	return m.prog
}

type compiler struct {
	prog     *Program
	constIdx map[constant]int32
	nameIdx  map[string]int32
	msgIdx   map[string]int32
}

// sortedBuiltinNames is the builtin name set in sorted order, computed once
// so every compilation skips the per-module sort.
var sortedBuiltinNames = func() []string {
	bn := make([]string, 0, len(builtinNames))
	for n := range builtinNames {
		bn = append(bn, n)
	}
	sort.Strings(bn)
	return bn
}()

// buildModuleSymtab lays out the module scope: builtins first (installed
// before execution starts), argv (SetArgs), every name assigned at module
// level, and every name declared global anywhere in the module (so `global`
// writes from functions hit slots too).
func (c *compiler) buildModuleSymtab(m *Module) {
	st := c.prog.modSyms
	for _, n := range sortedBuiltinNames {
		st.add(n)
	}
	st.add("argv")
	for _, n := range assignedNames(m.Body) {
		st.add(n)
	}
	collectGlobalDecls(m.Body, st)
}

// assignedNames returns the names a statement list binds, in first-binding
// order: assignment targets (through tuple/list nesting), aug-assign and for
// targets, def/class names, and `global`-declared names. It recurses into
// control flow but not into nested def/class bodies (those are separate
// scopes).
func assignedNames(body []Stmt) []string {
	var out []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	var addTarget func(e Expr)
	addTarget = func(e Expr) {
		switch t := e.(type) {
		case *NameExpr:
			add(t.Name)
		case *TupleLitExpr:
			for _, el := range t.Elems {
				addTarget(el)
			}
		case *ListLitExpr:
			for _, el := range t.Elems {
				addTarget(el)
			}
		}
	}
	var walk func([]Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *AssignStmt:
				for _, t := range st.Targets {
					addTarget(t)
				}
			case *AugAssignStmt:
				addTarget(st.Target)
			case *ForStmt:
				addTarget(st.Target)
				walk(st.Body)
			case *IfStmt:
				walk(st.Body)
				walk(st.Else)
			case *WhileStmt:
				walk(st.Body)
			case *FuncDef:
				add(st.Name)
			case *ClassDef:
				add(st.Name)
			case *GlobalStmt:
				for _, n := range st.Names {
					add(n)
				}
			}
		}
	}
	walk(body)
	return out
}

// collectGlobalDecls interns every `global`-declared name in the module,
// including inside nested function and class bodies, into the module symtab.
func collectGlobalDecls(body []Stmt, st *symtab) {
	var walk func([]Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch t := s.(type) {
			case *GlobalStmt:
				for _, n := range t.Names {
					st.add(n)
				}
			case *IfStmt:
				walk(t.Body)
				walk(t.Else)
			case *WhileStmt:
				walk(t.Body)
			case *ForStmt:
				walk(t.Body)
			case *FuncDef:
				walk(t.Body)
			case *ClassDef:
				walk(t.Body)
			}
		}
	}
	walk(body)
}

// compileFunc compiles one def statement to a funcProto and returns its pool
// index. Parameters occupy the first slots of the function symtab; paramSlots
// maps parameter position to slot for the (degenerate) duplicate-name case.
func (c *compiler) compileFunc(s *FuncDef) int32 {
	globals := collectGlobals(s.Body)
	st := newSymtab()
	for _, p := range s.Params {
		st.add(p)
	}
	for _, n := range assignedNames(s.Body) {
		if !globals[n] {
			st.add(n)
		}
	}
	fp := &funcProto{
		name: s.Name, params: s.Params,
		defLine: s.Pos(), endLine: s.EndLine,
	}
	idx := int32(len(c.prog.funcs))
	c.prog.funcs = append(c.prog.funcs, fp)
	fcb := c.newBuilder(s.Name, st, globals)
	fcb.code.idx = int(idx)
	fcb.code.paramSlots = make([]int32, len(s.Params))
	for i, p := range s.Params {
		fcb.code.paramSlots[i] = int32(st.index[p])
	}
	fcb.compileBody(s.Body)
	end := s.EndLine
	if end == 0 {
		end = s.Pos()
	}
	fcb.emit(opNone, 0, 0, end)
	fcb.push(1)
	fcb.emit(opReturn, 0, 0, end)
	fcb.pop(1)
	fp.code = fcb.finish()
	return idx
}

// ---- pool interning ----

func (c *compiler) constant(k constant) int32 {
	if i, ok := c.constIdx[k]; ok {
		return i
	}
	i := int32(len(c.prog.consts))
	c.prog.consts = append(c.prog.consts, k)
	c.constIdx[k] = i
	return i
}

func (c *compiler) name(n string) int32 {
	if i, ok := c.nameIdx[n]; ok {
		return i
	}
	i := int32(len(c.prog.names))
	c.prog.names = append(c.prog.names, n)
	c.nameIdx[n] = i
	return i
}

func (c *compiler) msg(m string) int32 {
	if i, ok := c.msgIdx[m]; ok {
		return i
	}
	i := int32(len(c.prog.msgs))
	c.prog.msgs = append(c.prog.msgs, m)
	c.msgIdx[m] = i
	return i
}

// ---- code builder ----

type loopCtx struct {
	breakJumps []int
	contJumps  []int
}

type codeBuilder struct {
	c    *compiler
	code *Code
	// syms is the local symtab; nil when compiling the module body.
	syms *symtab
	// globals lists `global`-declared names of the function (nil for the
	// module body, where every name is global anyway).
	globals map[string]bool
	// topLine is the current top-level statement's line: a stray
	// break/continue raises its error there, at the enclosing statement.
	topLine int
	loops   []loopCtx
	// iterDepth tracks live for-loop nesting for register assignment;
	// depth/maxD model the operand stack.
	iterDepth int
	depth     int
	maxD      int
}

func (c *compiler) newBuilder(name string, syms *symtab, globals map[string]bool) *codeBuilder {
	return &codeBuilder{
		c:       c,
		code:    &Code{name: name, prog: c.prog, syms: syms, ops: make([]Instr, 0, 64)},
		syms:    syms,
		globals: globals,
	}
}

func (cb *codeBuilder) finish() *Code {
	cb.code.maxStack = cb.maxD
	return cb.code
}

func (cb *codeBuilder) emit(op Opcode, a, b int32, line int) int {
	cb.code.ops = append(cb.code.ops, Instr{Op: op, A: a, B: b, Line: int32(line)})
	return len(cb.code.ops) - 1
}

func (cb *codeBuilder) push(n int) {
	cb.depth += n
	if cb.depth > cb.maxD {
		cb.maxD = cb.depth
	}
}

func (cb *codeBuilder) pop(n int) { cb.depth -= n }

func (cb *codeBuilder) here() int { return len(cb.code.ops) }

// patch points a forward jump at the current instruction index.
func (cb *codeBuilder) patch(at int) { cb.code.ops[at].A = int32(len(cb.code.ops)) }

func (cb *codeBuilder) line(l int) { cb.emit(opLine, 0, 0, l) }

func (cb *codeBuilder) raise(msg string, line int) {
	cb.emit(opRaise, cb.c.msg(msg), 0, line)
}

func (cb *codeBuilder) compileBody(body []Stmt) {
	for _, st := range body {
		cb.topLine = st.Pos()
		cb.stmt(st)
	}
}

// block compiles a nested statement list without resetting topLine.
func (cb *codeBuilder) block(body []Stmt) {
	for _, st := range body {
		cb.stmt(st)
	}
}

func (cb *codeBuilder) stmt(st Stmt) {
	switch s := st.(type) {
	case *ExprStmt:
		cb.line(s.Pos())
		cb.expr(s.X)
		cb.emit(opPop, 0, 0, s.Pos())
		cb.pop(1)

	case *AssignStmt:
		cb.line(s.Pos())
		cb.expr(s.Value)
		for i, tgt := range s.Targets {
			if i < len(s.Targets)-1 {
				cb.emit(opDup, 0, 0, s.Pos())
				cb.push(1)
			}
			cb.store(tgt)
		}

	case *AugAssignStmt:
		cb.line(s.Pos())
		cb.expr(s.Target)
		cb.expr(s.Value)
		if s.Op == Plus {
			// In-place list extension takes the skip edge past the
			// store; every other type falls through to a plain
			// store of l+r, re-evaluating the target's operands.
			j := cb.emit(opAugAdd, 0, 0, s.Pos())
			cb.pop(2)
			cb.push(1)
			cb.store(s.Target)
			cb.patch(j)
		} else {
			cb.emit(opBinOp, int32(s.Op), 0, s.Pos())
			cb.pop(2)
			cb.push(1)
			cb.store(s.Target)
		}

	case *DelStmt:
		cb.line(s.Pos())
		switch t := s.Target.(type) {
		case *NameExpr:
			cb.delName(t.Name, t.Pos())
		case *IndexExpr:
			cb.expr(t.X)
			cb.expr(t.Index)
			cb.emit(opDelIndex, 0, 0, t.Pos())
			cb.pop(2)
		default:
			cb.raise(fmt.Sprintf("cannot delete %T", s.Target), s.Target.Pos())
		}

	case *IfStmt:
		cb.line(s.Pos())
		cb.expr(s.Cond)
		j := cb.emit(opJumpIfFalse, 0, 0, s.Pos())
		cb.pop(1)
		cb.block(s.Body)
		if len(s.Else) > 0 {
			j2 := cb.emit(opJump, 0, 0, s.Pos())
			cb.patch(j)
			cb.block(s.Else)
			cb.patch(j2)
		} else {
			cb.patch(j)
		}

	case *WhileStmt:
		head := cb.here()
		cb.line(s.Pos())
		cb.expr(s.Cond)
		jend := cb.emit(opJumpIfFalse, 0, 0, s.Pos())
		cb.pop(1)
		cb.loops = append(cb.loops, loopCtx{})
		cb.block(s.Body)
		lc := cb.loops[len(cb.loops)-1]
		cb.loops = cb.loops[:len(cb.loops)-1]
		cb.emit(opJump, int32(head), 0, s.Pos())
		end := int32(cb.here())
		cb.code.ops[jend].A = end
		for _, at := range lc.contJumps {
			cb.code.ops[at].A = int32(head)
		}
		for _, at := range lc.breakJumps {
			cb.code.ops[at].A = end
		}

	case *ForStmt:
		cb.line(s.Pos())
		cb.expr(s.Iter)
		reg := int32(cb.iterDepth)
		cb.iterDepth++
		if cb.iterDepth > cb.code.numIters {
			cb.code.numIters = cb.iterDepth
		}
		cb.emit(opIterNew, reg, 0, s.Pos())
		cb.pop(1)
		jfirst := cb.emit(opIterNext, 0, reg, s.Pos())
		cb.push(1)
		body := int32(cb.here())
		cb.store(s.Target)
		cb.loops = append(cb.loops, loopCtx{})
		cb.block(s.Body)
		lc := cb.loops[len(cb.loops)-1]
		cb.loops = cb.loops[:len(cb.loops)-1]
		again := int32(cb.here())
		// The `for` line re-fires on iterations >= 2 only when another
		// item exists: opIterNextLine checks exhaustion first, then
		// fires the line event, then pushes the item.
		jnext := cb.emit(opIterNextLine, 0, reg, s.Pos())
		cb.push(1)
		cb.emit(opJump, body, 0, s.Pos())
		cb.pop(1) // the loop edge consumes the pushed item via the store
		end := int32(cb.here())
		cb.code.ops[jfirst].A = end
		cb.code.ops[jnext].A = end
		for _, at := range lc.contJumps {
			cb.code.ops[at].A = again
		}
		for _, at := range lc.breakJumps {
			cb.code.ops[at].A = end
		}
		cb.iterDepth--

	case *FuncDef:
		cb.line(s.Pos())
		idx := cb.c.compileFunc(s)
		cb.emit(opMakeFunc, idx, 0, s.Pos())
		cb.push(1)
		cb.storeName(s.Name, s.Pos())

	case *ClassDef:
		cb.line(s.Pos())
		proto := &classProto{name: s.Name, defLine: s.Pos()}
		idx := int32(len(cb.c.prog.classes))
		cb.c.prog.classes = append(cb.c.prog.classes, proto)
		n := 0
		bad := false
	members:
		for _, bs := range s.Body {
			switch m := bs.(type) {
			case *FuncDef:
				fidx := cb.c.compileFunc(m)
				cb.emit(opMakeFunc, fidx, 0, m.Pos())
				cb.push(1)
				proto.members = append(proto.members, m.Name)
				n++
			case *PassStmt:
				// allowed
			case *AssignStmt:
				if len(m.Targets) == 1 {
					if nm, ok := m.Targets[0].(*NameExpr); ok {
						cb.expr(m.Value)
						proto.members = append(proto.members, nm.Name)
						n++
						continue
					}
				}
				cb.raise("unsupported statement in class body", m.Pos())
				bad = true
				break members
			default:
				cb.raise("unsupported statement in class body", bs.Pos())
				bad = true
				break members
			}
		}
		cb.pop(n)
		if !bad {
			cb.emit(opMakeClass, idx, int32(n), s.Pos())
			cb.push(1)
			cb.storeName(s.Name, s.Pos())
		}

	case *ReturnStmt:
		cb.line(s.Pos())
		if cb.syms == nil {
			// Module-level return errors before evaluating the value.
			cb.raise("'return' outside function", s.Pos())
			return
		}
		if s.Value != nil {
			cb.expr(s.Value)
		} else {
			cb.emit(opNone, 0, 0, s.Pos())
			cb.push(1)
		}
		cb.emit(opReturn, 0, 0, s.Pos())
		cb.pop(1)

	case *BreakStmt:
		cb.line(s.Pos())
		if len(cb.loops) == 0 {
			cb.raise("'break' outside loop", cb.topLine)
			return
		}
		lc := &cb.loops[len(cb.loops)-1]
		lc.breakJumps = append(lc.breakJumps, cb.emit(opJump, 0, 0, s.Pos()))

	case *ContinueStmt:
		cb.line(s.Pos())
		if len(cb.loops) == 0 {
			cb.raise("'continue' outside loop", cb.topLine)
			return
		}
		lc := &cb.loops[len(cb.loops)-1]
		lc.contJumps = append(lc.contJumps, cb.emit(opJump, 0, 0, s.Pos()))

	case *PassStmt:
		cb.line(s.Pos())

	case *GlobalStmt:
		// Purely declarative at runtime: the compiler already resolved
		// every name against the declaration set.
		cb.line(s.Pos())

	default:
		cb.line(st.Pos())
		cb.raise(fmt.Sprintf("unsupported statement %T", st), st.Pos())
	}
}

// store compiles the write of TOS to an assignment target, consuming it.
func (cb *codeBuilder) store(tgt Expr) {
	switch t := tgt.(type) {
	case *NameExpr:
		cb.storeName(t.Name, t.Pos())
	case *IndexExpr:
		cb.expr(t.X)
		cb.expr(t.Index)
		cb.emit(opStoreIndex, 0, 0, t.Pos())
		cb.pop(3)
	case *AttrExpr:
		cb.expr(t.X)
		cb.emit(opStoreAttr, 0, cb.c.name(t.Name), t.Pos())
		cb.pop(2)
	case *TupleLitExpr:
		cb.storeUnpack(t.Elems, t.Pos())
	case *ListLitExpr:
		cb.storeUnpack(t.Elems, t.Pos())
	default:
		cb.raise(fmt.Sprintf("cannot assign to %T", tgt), tgt.Pos())
		cb.pop(1)
	}
}

func (cb *codeBuilder) storeUnpack(elems []Expr, line int) {
	cb.emit(opUnpack, int32(len(elems)), 0, line)
	cb.pop(1)
	cb.push(len(elems))
	for _, el := range elems {
		cb.store(el)
	}
}

func (cb *codeBuilder) storeName(name string, line int) {
	if cb.syms != nil && !cb.globals[name] {
		if i, ok := cb.syms.index[name]; ok {
			cb.emit(opStoreLocal, int32(i), cb.c.name(name), line)
			cb.pop(1)
			return
		}
	}
	if i, ok := cb.c.prog.modSyms.index[name]; ok {
		cb.emit(opStoreGlobal, int32(i), cb.c.name(name), line)
	} else {
		cb.emit(opStoreGlobalN, 0, cb.c.name(name), line)
	}
	cb.pop(1)
}

func (cb *codeBuilder) loadName(name string, line int) {
	if cb.syms != nil && !cb.globals[name] {
		if i, ok := cb.syms.index[name]; ok {
			cb.emit(opLoadLocal, int32(i), cb.c.name(name), line)
			cb.push(1)
			return
		}
	}
	if i, ok := cb.c.prog.modSyms.index[name]; ok {
		cb.emit(opLoadGlobal, int32(i), cb.c.name(name), line)
	} else {
		cb.emit(opLoadGlobalN, 0, cb.c.name(name), line)
	}
	cb.push(1)
}

func (cb *codeBuilder) delName(name string, line int) {
	if cb.syms != nil {
		if !cb.globals[name] {
			if i, ok := cb.syms.index[name]; ok {
				cb.emit(opDelLocal, int32(i), cb.c.name(name), line)
				return
			}
			// Neither a local binding nor a `global` declaration:
			// the delete always raises, even when the name is bound
			// at module scope.
			cb.emit(opRaiseNameErr, 0, cb.c.name(name), line)
			return
		}
	}
	if i, ok := cb.c.prog.modSyms.index[name]; ok {
		cb.emit(opDelGlobal, int32(i), cb.c.name(name), line)
	} else {
		cb.emit(opDelGlobalN, 0, cb.c.name(name), line)
	}
}

func (cb *codeBuilder) expr(e Expr) {
	switch x := e.(type) {
	case *NameExpr:
		cb.loadName(x.Name, x.Pos())
	case *IntLitExpr:
		cb.emit(opConst, cb.c.constant(constant{kind: OInt, i: x.Value}), 0, x.Pos())
		cb.push(1)
	case *FloatLitExpr:
		cb.emit(opConst, cb.c.constant(constant{kind: OFloat, f: x.Value}), 0, x.Pos())
		cb.push(1)
	case *StrLitExpr:
		cb.emit(opConst, cb.c.constant(constant{kind: OStr, s: x.Value}), 0, x.Pos())
		cb.push(1)
	case *BoolLitExpr:
		if x.Value {
			cb.emit(opTrue, 0, 0, x.Pos())
		} else {
			cb.emit(opFalse, 0, 0, x.Pos())
		}
		cb.push(1)
	case *NoneLitExpr:
		cb.emit(opNone, 0, 0, x.Pos())
		cb.push(1)
	case *ListLitExpr:
		for _, el := range x.Elems {
			cb.expr(el)
		}
		cb.emit(opMakeList, int32(len(x.Elems)), 0, x.Pos())
		cb.pop(len(x.Elems))
		cb.push(1)
	case *TupleLitExpr:
		for _, el := range x.Elems {
			cb.expr(el)
		}
		cb.emit(opMakeTuple, int32(len(x.Elems)), 0, x.Pos())
		cb.pop(len(x.Elems))
		cb.push(1)
	case *DictLitExpr:
		cb.emit(opMakeDict, 0, 0, x.Pos())
		cb.push(1)
		for i := range x.Keys {
			cb.expr(x.Keys[i])
			cb.expr(x.Vals[i])
			cb.emit(opDictSet, 0, 0, x.Pos())
			cb.pop(2)
		}
	case *BinOpExpr:
		cb.expr(x.L)
		cb.expr(x.R)
		cb.emit(opBinOp, int32(x.Op), 0, x.Pos())
		cb.pop(2)
		cb.push(1)
	case *UnaryExpr:
		cb.expr(x.X)
		switch x.Op {
		case Minus:
			cb.emit(opNeg, 0, 0, x.Pos())
		case Plus:
			cb.emit(opPos, 0, 0, x.Pos())
		case KwNot:
			cb.emit(opNot, 0, 0, x.Pos())
		default:
			cb.raise(fmt.Sprintf("unsupported unary op %s", x.Op), x.Pos())
		}
	case *BoolOpExpr:
		cb.expr(x.L)
		var j int
		if x.Op == KwAnd {
			j = cb.emit(opJumpAndKeep, 0, 0, x.Pos())
		} else {
			j = cb.emit(opJumpOrKeep, 0, 0, x.Pos())
		}
		cb.pop(1)
		cb.expr(x.R)
		cb.patch(j)
	case *CompareExpr:
		cb.expr(x.First)
		var falseJumps []int
		for i, op := range x.Ops {
			cb.expr(x.Rest[i])
			if i < len(x.Ops)-1 {
				falseJumps = append(falseJumps, cb.emit(opCmpMid, 0, int32(op), x.Pos()))
				cb.pop(1)
			} else {
				cb.emit(opCompare, int32(op), 0, x.Pos())
				cb.pop(2)
				cb.push(1)
			}
		}
		for _, at := range falseJumps {
			cb.patch(at)
		}
	case *CallExpr:
		cb.expr(x.Fn)
		for _, a := range x.Args {
			cb.expr(a)
		}
		cb.emit(opCall, int32(len(x.Args)), 0, x.Pos())
		cb.pop(len(x.Args) + 1)
		cb.push(1)
	case *IndexExpr:
		cb.expr(x.X)
		cb.expr(x.Index)
		cb.emit(opIndex, 0, 0, x.Pos())
		cb.pop(2)
		cb.push(1)
	case *SliceExpr:
		cb.expr(x.X)
		// Sliceability is checked before the bounds are evaluated, and
		// each bound is type-checked right after its own evaluation —
		// the observable order when bounds have effects.
		cb.emit(opSliceCheck, 0, 0, x.Pos())
		var mask int32
		if x.Lo != nil {
			cb.expr(x.Lo)
			cb.emit(opSliceBound, 0, 0, x.Pos())
			mask |= 1
		}
		if x.Hi != nil {
			cb.expr(x.Hi)
			cb.emit(opSliceBound, 0, 0, x.Pos())
			mask |= 2
		}
		cb.emit(opSlice, mask, 0, x.Pos())
		n := 1
		if mask&1 != 0 {
			n++
		}
		if mask&2 != 0 {
			n++
		}
		cb.pop(n)
		cb.push(1)
	case *AttrExpr:
		cb.expr(x.X)
		cb.emit(opAttr, 0, cb.c.name(x.Name), x.Pos())
	default:
		cb.raise(fmt.Sprintf("unsupported expression %T", e), e.Pos())
		cb.push(1)
	}
}
