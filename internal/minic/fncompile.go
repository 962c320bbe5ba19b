package minic

import (
	"fmt"
	"math"
	"strings"

	"easytracker/internal/isa"
)

func mathFloat64bits(f float64) uint64 { return math.Float64bits(f) }

// builtinFuncs are compiler intrinsics expanded inline.
var builtinFuncs = map[string]bool{
	"printf": true, "puts": true, "putchar": true, "exit": true,
	"read_int": true, "read_char": true, "__sbrk": true,
}

// localVar is one frame slot.
type localVar struct {
	name string
	ty   *isa.TypeInfo
	off  int64 // fp-relative, negative
	dbg  int   // index into fc.locals
}

// fnCompiler generates code for one function.
type fnCompiler struct {
	c  *Compiler
	fn *FuncDecl

	scopes []map[string]*localVar
	locals []isa.VarInfo
	// nextOff is the next free fp-relative offset (grows downward);
	// slots start below the saved ra/fp pair.
	nextOff int64

	labels   []int // label id -> bound instruction index, -1 if unbound
	fixups   []labelFixup
	breakLbl []int
	contLbl  []int
	epilogue int

	curLine  int
	startIdx int
	// patch indices for the frame-size placeholders.
	proSub, proRA, proFP int
}

type labelFixup struct {
	idx   int
	label int
}

func (fc *fnCompiler) errf(line int, format string, args ...any) error {
	return &Error{File: fc.c.file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (fc *fnCompiler) emit(ins isa.Instr) int {
	return fc.c.emitAt(fc.curLine, ins)
}

func (fc *fnCompiler) here() uint64 { return isa.IndexToPC(len(fc.c.instrs)) }

func (fc *fnCompiler) newLabel() int {
	fc.labels = append(fc.labels, -1)
	return len(fc.labels) - 1
}

func (fc *fnCompiler) bind(l int) {
	fc.labels[l] = len(fc.c.instrs)
}

// emitBr emits a branch/jump whose Imm is patched to the label later.
func (fc *fnCompiler) emitBr(ins isa.Instr, label int) {
	idx := fc.emit(ins)
	fc.fixups = append(fc.fixups, labelFixup{idx: idx, label: label})
}

func (fc *fnCompiler) jump(label int) {
	fc.emitBr(isa.Instr{Op: isa.JAL, Rd: isa.Zero}, label)
}

func (fc *fnCompiler) resolveLabels() error {
	for _, f := range fc.fixups {
		target := fc.labels[f.label]
		if target < 0 {
			return fmt.Errorf("minic: internal: unbound label %d", f.label)
		}
		diff := int64(isa.IndexToPC(target)) - int64(isa.IndexToPC(f.idx))
		fc.c.instrs[f.idx].Imm = int32(diff)
	}
	return nil
}

// push/pop expression temporaries on the machine stack.
func (fc *fnCompiler) push(r isa.Reg) {
	fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: -8})
	fc.emit(isa.Instr{Op: isa.SD, Rs1: isa.SP, Rs2: r, Imm: 0})
}

func (fc *fnCompiler) pop(r isa.Reg) {
	fc.emit(isa.Instr{Op: isa.LD, Rd: r, Rs1: isa.SP, Imm: 0})
	fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: 8})
}

// loadImm materializes a 64-bit constant into rd.
func (fc *fnCompiler) loadImm(rd isa.Reg, v int64) {
	if int64(int32(v)) == v {
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: rd, Rs1: isa.Zero, Imm: int32(v)})
		return
	}
	addr := fc.c.constSlot(uint64(v))
	fc.emit(isa.Instr{Op: isa.LD, Rd: rd, Rs1: isa.Zero, Imm: int32(addr)})
}

// scope management

func (fc *fnCompiler) pushScope() {
	fc.scopes = append(fc.scopes, map[string]*localVar{})
}

// popScope closes the lexical scope, stamping ScopeEnd on its locals.
func (fc *fnCompiler) popScope() {
	top := fc.scopes[len(fc.scopes)-1]
	for _, lv := range top {
		fc.locals[lv.dbg].ScopeEnd = fc.here()
	}
	fc.scopes = fc.scopes[:len(fc.scopes)-1]
}

func (fc *fnCompiler) lookup(name string) *localVar {
	for i := len(fc.scopes) - 1; i >= 0; i-- {
		if lv, ok := fc.scopes[i][name]; ok {
			return lv
		}
	}
	return nil
}

// declareLocal allocates a frame slot in the current scope.
func (fc *fnCompiler) declareLocal(name string, ty *isa.TypeInfo, line int, isParam bool) (*localVar, error) {
	top := fc.scopes[len(fc.scopes)-1]
	if _, dup := top[name]; dup {
		return nil, fc.errf(line, "variable %q redeclared in this scope", name)
	}
	size := fc.c.sizeOf(ty)
	if size == 0 {
		return nil, fc.errf(line, "variable %q has incomplete type %s", name, ty)
	}
	fc.nextOff = -align(-fc.nextOff+size, 8)
	lv := &localVar{name: name, ty: ty, off: fc.nextOff, dbg: len(fc.locals)}
	top[name] = lv
	fc.locals = append(fc.locals, isa.VarInfo{
		Name: name, Type: ty, Offset: lv.off, Param: isParam, Line: line,
		ScopeStart: fc.here(),
	})
	return lv, nil
}

// genFunc compiles one function definition.
func (c *Compiler) genFunc(fd *FuncDecl) error {
	if len(fd.Params) > 8 {
		return &Error{File: c.file, Line: fd.Pos(), Msg: "more than 8 parameters not supported"}
	}
	fc := &fnCompiler{c: c, fn: fd, curLine: fd.Pos(), startIdx: len(c.instrs), nextOff: -16}
	fc.pushScope()

	// Prologue (frame size patched after the body).
	fc.proSub = fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP})
	fc.proRA = fc.emit(isa.Instr{Op: isa.SD, Rs1: isa.SP, Rs2: isa.RA})
	fc.proFP = fc.emit(isa.Instr{Op: isa.SD, Rs1: isa.SP, Rs2: isa.FP})
	proMovFP := fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.FP, Rs1: isa.SP})

	// Store parameters into their frame slots.
	for i, p := range fd.Params {
		if !isScalar(p.Type) {
			return fc.errf(p.Line, "parameter %q must have scalar type", p.Name)
		}
		lv, err := fc.declareLocal(p.Name, p.Type, p.Line, true)
		if err != nil {
			return err
		}
		fc.locals[lv.dbg].ScopeStart = 0 // params in scope from entry
		op := isa.SD
		if p.Type.Kind == isa.KChar {
			op = isa.SB
		}
		fc.emit(isa.Instr{Op: op, Rs1: isa.FP, Rs2: isa.Reg(int(isa.A0) + i), Imm: int32(lv.off)})
	}
	// A dedicated entry landing pad: function breakpoints arm this nop.
	// It executes exactly once per call and is never a branch target, so
	// a loop at the top of the body cannot re-trigger entry breakpoints.
	padIdx := fc.emit(isa.Nop())
	prologueEnd := isa.IndexToPC(padIdx)
	bodyRun := len(c.lines)

	fc.epilogue = fc.newLabel()
	if err := fc.genBlock(fd.Body, false); err != nil {
		return err
	}

	// Implicit return: main returns 0, void functions return, anything
	// else falls through with an undefined a0 (as in C).
	fc.curLine = fd.EndLine
	if fd.Name == "main" {
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero})
	}
	fc.bind(fc.epilogue)
	fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.FP}) // sp = fp
	fc.emit(isa.Instr{Op: isa.LD, Rd: isa.RA, Rs1: isa.SP, Imm: -8})
	fc.emit(isa.Instr{Op: isa.LD, Rd: isa.FP, Rs1: isa.SP, Imm: -16})
	fc.emit(isa.Ret())

	// Patch the frame size: saved ra/fp plus all local slots.
	frame := align(-fc.nextOff, 16)
	c.instrs[fc.proSub].Imm = int32(-frame)
	c.instrs[fc.proRA].Imm = int32(frame - 8)
	c.instrs[fc.proFP].Imm = int32(frame - 16)
	c.instrs[proMovFP].Imm = int32(frame)

	if err := fc.resolveLabels(); err != nil {
		return err
	}
	fc.popScope()

	// Attribute the landing pad to the first body line so entry pauses
	// report where execution is about to continue: when the body starts a
	// new run, the run starts at the pad instead. The prologue before the
	// pad keeps the run it is on.
	if bodyRun < len(c.lines) && c.lines[bodyRun].PC == isa.IndexToPC(padIdx+1) {
		c.lines[bodyRun].PC = prologueEnd
	}

	// Locals with ScopeEnd zero (function scope) stay visible to End.
	end := fc.here()
	for i := range fc.locals {
		if fc.locals[i].ScopeEnd == 0 {
			fc.locals[i].ScopeEnd = end
		}
	}
	line := fd.Pos()
	if c.inRuntime {
		line = 0
	}
	c.funcs = append(c.funcs, isa.FuncInfo{
		Name:        fd.Name,
		Entry:       isa.IndexToPC(fc.startIdx),
		End:         end,
		FrameSize:   frame,
		PrologueEnd: prologueEnd,
		Locals:      fc.locals,
		Line:        line,
		BodyEnd:     fd.EndLine,
	})
	return nil
}

func (fc *fnCompiler) genBlock(b *BlockStmt, newScope bool) error {
	if newScope {
		fc.pushScope()
		defer fc.popScope()
	}
	for _, s := range b.Body {
		if err := fc.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fc *fnCompiler) genStmt(s Stmt) error {
	fc.curLine = s.Pos()
	switch st := s.(type) {
	case *EmptyStmt:
		return nil
	case *BlockStmt:
		return fc.genBlock(st, true)
	case *DeclStmt:
		return fc.genDecl(st)
	case *ExprStmt:
		_, err := fc.genExpr(st.X)
		return err
	case *IfStmt:
		elseLbl := fc.newLabel()
		endLbl := fc.newLabel()
		if err := fc.genCond(st.Cond); err != nil {
			return err
		}
		fc.emitBr(isa.Instr{Op: isa.BEQ, Rs1: isa.T0, Rs2: isa.Zero}, elseLbl)
		if err := fc.genStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			fc.jump(endLbl)
		}
		fc.bind(elseLbl)
		if st.Else != nil {
			if err := fc.genStmt(st.Else); err != nil {
				return err
			}
			fc.bind(endLbl)
		} else {
			fc.bind(endLbl)
		}
		return nil
	case *WhileStmt:
		top := fc.newLabel()
		end := fc.newLabel()
		fc.bind(top)
		fc.curLine = st.Pos()
		if err := fc.genCond(st.Cond); err != nil {
			return err
		}
		fc.emitBr(isa.Instr{Op: isa.BEQ, Rs1: isa.T0, Rs2: isa.Zero}, end)
		fc.breakLbl = append(fc.breakLbl, end)
		fc.contLbl = append(fc.contLbl, top)
		if err := fc.genStmt(st.Body); err != nil {
			return err
		}
		fc.breakLbl = fc.breakLbl[:len(fc.breakLbl)-1]
		fc.contLbl = fc.contLbl[:len(fc.contLbl)-1]
		fc.curLine = st.Pos()
		fc.jump(top)
		fc.bind(end)
		return nil
	case *ForStmt:
		fc.pushScope()
		defer fc.popScope()
		if st.Init != nil {
			if err := fc.genStmt(st.Init); err != nil {
				return err
			}
		}
		top := fc.newLabel()
		post := fc.newLabel()
		end := fc.newLabel()
		fc.bind(top)
		if st.Cond != nil {
			fc.curLine = st.Pos()
			if err := fc.genCond(st.Cond); err != nil {
				return err
			}
			fc.emitBr(isa.Instr{Op: isa.BEQ, Rs1: isa.T0, Rs2: isa.Zero}, end)
		}
		fc.breakLbl = append(fc.breakLbl, end)
		fc.contLbl = append(fc.contLbl, post)
		if err := fc.genStmt(st.Body); err != nil {
			return err
		}
		fc.breakLbl = fc.breakLbl[:len(fc.breakLbl)-1]
		fc.contLbl = fc.contLbl[:len(fc.contLbl)-1]
		fc.bind(post)
		if st.Post != nil {
			fc.curLine = st.Pos()
			if _, err := fc.genExpr(st.Post); err != nil {
				return err
			}
		}
		fc.curLine = st.Pos()
		fc.jump(top)
		fc.bind(end)
		return nil
	case *ReturnStmt:
		if st.Value != nil {
			ty, err := fc.genExpr(st.Value)
			if err != nil {
				return err
			}
			if err := fc.convert(st.Pos(), ty, fc.fn.Ret); err != nil {
				return err
			}
			fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.T0})
		} else if fc.fn.Ret.Kind != isa.KVoid {
			return fc.errf(st.Pos(), "return without value in function returning %s", fc.fn.Ret)
		}
		fc.jump(fc.epilogue)
		return nil
	case *BreakStmt:
		if len(fc.breakLbl) == 0 {
			return fc.errf(st.Pos(), "break outside loop")
		}
		fc.jump(fc.breakLbl[len(fc.breakLbl)-1])
		return nil
	case *ContinueStmt:
		if len(fc.contLbl) == 0 {
			return fc.errf(st.Pos(), "continue outside loop")
		}
		fc.jump(fc.contLbl[len(fc.contLbl)-1])
		return nil
	}
	return fc.errf(s.Pos(), "unsupported statement %T", s)
}

func (fc *fnCompiler) genDecl(st *DeclStmt) error {
	lv, err := fc.declareLocal(st.Name, st.Type, st.Pos(), false)
	if err != nil {
		return err
	}
	switch {
	case st.Init != nil:
		ty, err := fc.genExpr(st.Init)
		if err != nil {
			return err
		}
		if err := fc.convert(st.Pos(), ty, st.Type); err != nil {
			return err
		}
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T1, Rs1: isa.FP, Imm: int32(lv.off)})
		fc.storeTo(isa.T1, isa.T0, st.Type)
	case st.InitList != nil:
		if st.Type.Kind != isa.KArray {
			return fc.errf(st.Pos(), "brace initializer on non-array variable")
		}
		if len(st.InitList) > st.Type.Len {
			return fc.errf(st.Pos(), "too many initializers for %s", st.Type)
		}
		esz := fc.c.sizeOf(st.Type.Elem)
		for i, e := range st.InitList {
			ty, err := fc.genExpr(e)
			if err != nil {
				return err
			}
			if err := fc.convert(e.Pos(), ty, st.Type.Elem); err != nil {
				return err
			}
			off := lv.off + int64(i)*esz
			fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T1, Rs1: isa.FP, Imm: int32(off)})
			fc.storeTo(isa.T1, isa.T0, st.Type.Elem)
		}
	}
	return nil
}

// genCond evaluates an expression as a boolean into t0 (0 or nonzero).
func (fc *fnCompiler) genCond(e Expr) error {
	ty, err := fc.genExpr(e)
	if err != nil {
		return err
	}
	if ty.Kind == isa.KDouble {
		// t0 = (t0 != 0.0)
		fc.loadFImm(isa.T1, 0)
		fc.emit(isa.Instr{Op: isa.FEQ, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		fc.emit(isa.Instr{Op: isa.XORI, Rd: isa.T0, Rs1: isa.T0, Imm: 1})
	}
	return nil
}

func (fc *fnCompiler) loadFImm(rd isa.Reg, f float64) {
	addr := fc.c.constSlot(math.Float64bits(f))
	fc.emit(isa.Instr{Op: isa.LD, Rd: rd, Rs1: isa.Zero, Imm: int32(addr)})
}

// loadFrom loads a scalar of type ty from the address in ra into rd.
func (fc *fnCompiler) loadFrom(rd, ra isa.Reg, ty *isa.TypeInfo) {
	if ty.Kind == isa.KChar {
		fc.emit(isa.Instr{Op: isa.LB, Rd: rd, Rs1: ra})
		return
	}
	fc.emit(isa.Instr{Op: isa.LD, Rd: rd, Rs1: ra})
}

// storeTo stores rv (typed ty) to the address in ra.
func (fc *fnCompiler) storeTo(ra, rv isa.Reg, ty *isa.TypeInfo) {
	if ty.Kind == isa.KChar {
		fc.emit(isa.Instr{Op: isa.SB, Rs1: ra, Rs2: rv})
		return
	}
	fc.emit(isa.Instr{Op: isa.SD, Rs1: ra, Rs2: rv})
}

// convert coerces the value in t0 from type `from` to type `to`; errors on
// incompatible conversions.
func (fc *fnCompiler) convert(line int, from, to *isa.TypeInfo) error {
	from, to = decay(from), decay(to)
	if from.Equal(to) {
		return nil
	}
	switch {
	case isInteger(from) && isInteger(to):
		return nil // widths handled by load/store
	case isInteger(from) && to.Kind == isa.KDouble:
		fc.emit(isa.Instr{Op: isa.ITOF, Rd: isa.T0, Rs1: isa.T0})
		return nil
	case from.Kind == isa.KDouble && isInteger(to):
		fc.emit(isa.Instr{Op: isa.FTOI, Rd: isa.T0, Rs1: isa.T0})
		return nil
	case isPointerish(from) && isPointerish(to):
		return nil
	case isInteger(from) && isPointerish(to), isPointerish(from) && isInteger(to):
		return nil
	case to.Kind == isa.KVoid:
		return nil
	}
	return fc.errf(line, "cannot convert %s to %s", from, to)
}

// genExpr evaluates e into t0, returning its (decayed for arrays used as
// values) type.
func (fc *fnCompiler) genExpr(e Expr) (*isa.TypeInfo, error) {
	switch x := e.(type) {
	case *IntLit:
		fc.loadImm(isa.T0, x.Value)
		return isa.IntType(), nil
	case *CharLit:
		fc.loadImm(isa.T0, x.Value)
		return isa.IntType(), nil
	case *FloatLit:
		fc.loadFImm(isa.T0, x.Value)
		return isa.DoubleType(), nil
	case *StrLit:
		addr := fc.c.strAddr(x.Value)
		fc.loadImm(isa.T0, int64(addr))
		return isa.PtrTo(isa.CharType()), nil
	case *Ident:
		if v, ok := fc.c.enums[x.Name]; ok {
			fc.loadImm(isa.T0, v)
			return isa.IntType(), nil
		}
		if fc.lookup(x.Name) == nil && fc.c.globals[x.Name] == nil {
			if _, isFn := fc.c.sigs[x.Name]; isFn {
				idx := fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.Zero})
				fc.c.addrFix = append(fc.c.addrFix, nameFixup{idx: idx, name: x.Name, line: x.Pos()})
				return &isa.TypeInfo{Kind: isa.KFunc}, nil
			}
		}
		ty, err := fc.genAddr(e)
		if err != nil {
			return nil, err
		}
		if ty.Kind == isa.KArray {
			return isa.PtrTo(ty.Elem), nil // address is the value
		}
		if ty.Kind == isa.KStruct {
			return ty, nil // struct "value" is its address (member access only)
		}
		fc.loadFrom(isa.T0, isa.T0, ty)
		return ty, nil
	case *UnaryExpr:
		return fc.genUnary(x)
	case *PostfixExpr:
		return fc.genIncDec(x.Pos(), x.X, x.Op, true)
	case *BinaryExpr:
		return fc.genBinary(x)
	case *AssignExpr:
		return fc.genAssign(x)
	case *CallExpr:
		return fc.genCall(x)
	case *IndexExpr, *MemberExpr:
		ty, err := fc.genAddr(e)
		if err != nil {
			return nil, err
		}
		if ty.Kind == isa.KArray {
			return isa.PtrTo(ty.Elem), nil
		}
		if ty.Kind == isa.KStruct {
			return ty, nil
		}
		fc.loadFrom(isa.T0, isa.T0, ty)
		return ty, nil
	case *CastExpr:
		from, err := fc.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		if err := fc.convert(x.Pos(), from, x.Type); err != nil {
			return nil, err
		}
		if x.Type.Kind == isa.KChar && from.Kind != isa.KChar {
			// Narrowing cast: materialize the char value.
			fc.emit(isa.Instr{Op: isa.SLLI, Rd: isa.T0, Rs1: isa.T0, Imm: 56})
			fc.emit(isa.Instr{Op: isa.SRAI, Rd: isa.T0, Rs1: isa.T0, Imm: 56})
		}
		return x.Type, nil
	case *SizeofExpr:
		if x.Type != nil {
			fc.loadImm(isa.T0, fc.c.sizeOf(x.Type))
			return isa.IntType(), nil
		}
		ty, err := fc.typeOf(x.X)
		if err != nil {
			return nil, err
		}
		fc.loadImm(isa.T0, fc.c.sizeOf(ty))
		return isa.IntType(), nil
	case *InitListExpr:
		return nil, fc.errf(x.Pos(), "brace initializer only allowed in declarations")
	}
	return nil, fc.errf(e.Pos(), "unsupported expression %T", e)
}

func (fc *fnCompiler) genUnary(x *UnaryExpr) (*isa.TypeInfo, error) {
	switch x.Op {
	case TAmp:
		ty, err := fc.genAddr(x.X)
		if err != nil {
			return nil, err
		}
		return isa.PtrTo(ty), nil
	case TStar:
		ty, err := fc.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		ty = decay(ty)
		if ty.Kind != isa.KPtr {
			return nil, fc.errf(x.Pos(), "cannot dereference non-pointer type %s", ty)
		}
		elem := ty.Elem
		if elem.Kind == isa.KArray || elem.Kind == isa.KStruct {
			return elem, nil // address is the value
		}
		fc.loadFrom(isa.T0, isa.T0, elem)
		return elem, nil
	case TMinus:
		ty, err := fc.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		switch {
		case ty.Kind == isa.KDouble:
			fc.emit(isa.Instr{Op: isa.FNEG, Rd: isa.T0, Rs1: isa.T0})
		case isInteger(ty):
			fc.emit(isa.Instr{Op: isa.SUB, Rd: isa.T0, Rs1: isa.Zero, Rs2: isa.T0})
		default:
			return nil, fc.errf(x.Pos(), "cannot negate %s", ty)
		}
		return ty, nil
	case TPlus:
		return fc.genExpr(x.X)
	case TNot:
		if err := fc.genCond(x.X); err != nil {
			return nil, err
		}
		fc.emit(isa.Instr{Op: isa.SLTU, Rd: isa.T0, Rs1: isa.Zero, Rs2: isa.T0})
		fc.emit(isa.Instr{Op: isa.XORI, Rd: isa.T0, Rs1: isa.T0, Imm: 1})
		return isa.IntType(), nil
	case TTilde:
		ty, err := fc.genExpr(x.X)
		if err != nil {
			return nil, err
		}
		if !isInteger(ty) {
			return nil, fc.errf(x.Pos(), "~ requires an integer operand")
		}
		fc.emit(isa.Instr{Op: isa.XORI, Rd: isa.T0, Rs1: isa.T0, Imm: -1})
		return isa.IntType(), nil
	case TPlusPlus, TMinusMinus:
		return fc.genIncDec(x.Pos(), x.X, x.Op, false)
	}
	return nil, fc.errf(x.Pos(), "unsupported unary operator")
}

// genIncDec handles ++/-- (post reports the old value).
func (fc *fnCompiler) genIncDec(line int, lv Expr, op TokKind, post bool) (*isa.TypeInfo, error) {
	ty, err := fc.genAddr(lv)
	if err != nil {
		return nil, err
	}
	var delta int64 = 1
	switch {
	case ty.Kind == isa.KPtr:
		delta = fc.c.sizeOf(ty.Elem)
	case isInteger(ty):
	default:
		return nil, fc.errf(line, "++/-- requires an integer or pointer, got %s", ty)
	}
	if op == TMinusMinus {
		delta = -delta
	}
	fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T1, Rs1: isa.T0}) // t1 = addr
	fc.loadFrom(isa.T0, isa.T1, ty)
	if post {
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T2, Rs1: isa.T0}) // save old
	}
	if int64(int32(delta)) == delta {
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.T0, Imm: int32(delta)})
	} else {
		fc.loadImm(isa.T3, delta)
		fc.emit(isa.Instr{Op: isa.ADD, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T3})
	}
	fc.storeTo(isa.T1, isa.T0, ty)
	if post {
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.T2})
	}
	return ty, nil
}

func (fc *fnCompiler) genBinary(x *BinaryExpr) (*isa.TypeInfo, error) {
	// Short-circuit logical operators.
	if x.Op == TAndAnd || x.Op == TOrOr {
		end := fc.newLabel()
		if err := fc.genCond(x.L); err != nil {
			return nil, err
		}
		// Normalize to 0/1.
		fc.emit(isa.Instr{Op: isa.SLTU, Rd: isa.T0, Rs1: isa.Zero, Rs2: isa.T0})
		if x.Op == TAndAnd {
			fc.emitBr(isa.Instr{Op: isa.BEQ, Rs1: isa.T0, Rs2: isa.Zero}, end)
		} else {
			fc.emitBr(isa.Instr{Op: isa.BNE, Rs1: isa.T0, Rs2: isa.Zero}, end)
		}
		if err := fc.genCond(x.R); err != nil {
			return nil, err
		}
		fc.emit(isa.Instr{Op: isa.SLTU, Rd: isa.T0, Rs1: isa.Zero, Rs2: isa.T0})
		fc.bind(end)
		return isa.IntType(), nil
	}

	lt, err := fc.genExpr(x.L)
	if err != nil {
		return nil, err
	}
	lt = decay(lt)
	fc.push(isa.T0)
	rt, err := fc.genExpr(x.R)
	if err != nil {
		return nil, err
	}
	rt = decay(rt)
	fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T1, Rs1: isa.T0}) // t1 = rhs
	fc.pop(isa.T0)                                            // t0 = lhs

	// Pointer arithmetic.
	if lt.Kind == isa.KPtr || rt.Kind == isa.KPtr {
		return fc.genPointerOp(x, lt, rt)
	}
	if !isNumeric(lt) || !isNumeric(rt) {
		return nil, fc.errf(x.Pos(), "invalid operands to %q: %s and %s", x.Op.String(), lt, rt)
	}

	// Usual arithmetic conversions.
	dbl := lt.Kind == isa.KDouble || rt.Kind == isa.KDouble
	if dbl {
		if lt.Kind != isa.KDouble {
			fc.emit(isa.Instr{Op: isa.ITOF, Rd: isa.T0, Rs1: isa.T0})
		}
		if rt.Kind != isa.KDouble {
			fc.emit(isa.Instr{Op: isa.ITOF, Rd: isa.T1, Rs1: isa.T1})
		}
	}

	if dbl {
		switch x.Op {
		case TPlus:
			fc.emit(isa.Instr{Op: isa.FADD, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		case TMinus:
			fc.emit(isa.Instr{Op: isa.FSUB, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		case TStar:
			fc.emit(isa.Instr{Op: isa.FMUL, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		case TSlash:
			fc.emit(isa.Instr{Op: isa.FDIV, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		case TEq:
			fc.emit(isa.Instr{Op: isa.FEQ, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		case TNe:
			fc.emit(isa.Instr{Op: isa.FEQ, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
			fc.emit(isa.Instr{Op: isa.XORI, Rd: isa.T0, Rs1: isa.T0, Imm: 1})
		case TLt:
			fc.emit(isa.Instr{Op: isa.FLT, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		case TLe:
			fc.emit(isa.Instr{Op: isa.FLE, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		case TGt:
			fc.emit(isa.Instr{Op: isa.FLT, Rd: isa.T0, Rs1: isa.T1, Rs2: isa.T0})
		case TGe:
			fc.emit(isa.Instr{Op: isa.FLE, Rd: isa.T0, Rs1: isa.T1, Rs2: isa.T0})
		default:
			return nil, fc.errf(x.Pos(), "operator %q not defined on double", x.Op.String())
		}
		if isCompareTok(x.Op) {
			return isa.IntType(), nil
		}
		return isa.DoubleType(), nil
	}

	switch x.Op {
	case TPlus:
		fc.emit(isa.Instr{Op: isa.ADD, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TMinus:
		fc.emit(isa.Instr{Op: isa.SUB, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TStar:
		fc.emit(isa.Instr{Op: isa.MUL, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TSlash:
		fc.emit(isa.Instr{Op: isa.DIV, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TPercent:
		fc.emit(isa.Instr{Op: isa.REM, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TAmp:
		fc.emit(isa.Instr{Op: isa.AND, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TPipe:
		fc.emit(isa.Instr{Op: isa.OR, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TCaret:
		fc.emit(isa.Instr{Op: isa.XOR, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TShl:
		fc.emit(isa.Instr{Op: isa.SLL, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TShr:
		fc.emit(isa.Instr{Op: isa.SRA, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TEq, TNe, TLt, TLe, TGt, TGe:
		fc.emitIntCompare(x.Op)
		return isa.IntType(), nil
	default:
		return nil, fc.errf(x.Pos(), "unsupported operator %q", x.Op.String())
	}
	return isa.IntType(), nil
}

func isCompareTok(k TokKind) bool {
	switch k {
	case TEq, TNe, TLt, TLe, TGt, TGe:
		return true
	}
	return false
}

// emitIntCompare leaves (t0 OP t1) as 0/1 in t0.
func (fc *fnCompiler) emitIntCompare(op TokKind) {
	switch op {
	case TLt:
		fc.emit(isa.Instr{Op: isa.SLT, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case TGt:
		fc.emit(isa.Instr{Op: isa.SLT, Rd: isa.T0, Rs1: isa.T1, Rs2: isa.T0})
	case TLe:
		fc.emit(isa.Instr{Op: isa.SLT, Rd: isa.T0, Rs1: isa.T1, Rs2: isa.T0})
		fc.emit(isa.Instr{Op: isa.XORI, Rd: isa.T0, Rs1: isa.T0, Imm: 1})
	case TGe:
		fc.emit(isa.Instr{Op: isa.SLT, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		fc.emit(isa.Instr{Op: isa.XORI, Rd: isa.T0, Rs1: isa.T0, Imm: 1})
	case TEq:
		fc.emit(isa.Instr{Op: isa.XOR, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		fc.emit(isa.Instr{Op: isa.SLTU, Rd: isa.T0, Rs1: isa.Zero, Rs2: isa.T0})
		fc.emit(isa.Instr{Op: isa.XORI, Rd: isa.T0, Rs1: isa.T0, Imm: 1})
	case TNe:
		fc.emit(isa.Instr{Op: isa.XOR, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		fc.emit(isa.Instr{Op: isa.SLTU, Rd: isa.T0, Rs1: isa.Zero, Rs2: isa.T0})
	}
}

// genPointerOp handles +, -, and comparisons with pointer operands
// (operands already in t0/t1).
func (fc *fnCompiler) genPointerOp(x *BinaryExpr, lt, rt *isa.TypeInfo) (*isa.TypeInfo, error) {
	switch x.Op {
	case TPlus, TMinus:
		switch {
		case lt.Kind == isa.KPtr && isInteger(rt):
			fc.loadImmTo(isa.T2, fc.c.sizeOf(lt.Elem))
			fc.emit(isa.Instr{Op: isa.MUL, Rd: isa.T1, Rs1: isa.T1, Rs2: isa.T2})
			op := isa.ADD
			if x.Op == TMinus {
				op = isa.SUB
			}
			fc.emit(isa.Instr{Op: op, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
			return lt, nil
		case isInteger(lt) && rt.Kind == isa.KPtr && x.Op == TPlus:
			fc.loadImmTo(isa.T2, fc.c.sizeOf(rt.Elem))
			fc.emit(isa.Instr{Op: isa.MUL, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T2})
			fc.emit(isa.Instr{Op: isa.ADD, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
			return rt, nil
		case lt.Kind == isa.KPtr && rt.Kind == isa.KPtr && x.Op == TMinus:
			fc.emit(isa.Instr{Op: isa.SUB, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
			fc.loadImmTo(isa.T2, fc.c.sizeOf(lt.Elem))
			fc.emit(isa.Instr{Op: isa.DIV, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T2})
			return isa.IntType(), nil
		}
	case TEq, TNe, TLt, TLe, TGt, TGe:
		fc.emitIntCompare(x.Op)
		return isa.IntType(), nil
	}
	return nil, fc.errf(x.Pos(), "invalid pointer operation %q between %s and %s", x.Op.String(), lt, rt)
}

// loadImmTo is loadImm into an arbitrary register.
func (fc *fnCompiler) loadImmTo(rd isa.Reg, v int64) {
	if int64(int32(v)) == v {
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: rd, Rs1: isa.Zero, Imm: int32(v)})
		return
	}
	addr := fc.c.constSlot(uint64(v))
	fc.emit(isa.Instr{Op: isa.LD, Rd: rd, Rs1: isa.Zero, Imm: int32(addr)})
}

func (fc *fnCompiler) genAssign(x *AssignExpr) (*isa.TypeInfo, error) {
	lty, err := fc.genAddr(x.L)
	if err != nil {
		return nil, err
	}
	if !isScalar(lty) {
		return nil, fc.errf(x.Pos(), "cannot assign to value of type %s", lty)
	}
	fc.push(isa.T0) // address

	if x.Op == TAssign {
		rty, err := fc.genExpr(x.R)
		if err != nil {
			return nil, err
		}
		if err := fc.convert(x.Pos(), rty, lty); err != nil {
			return nil, err
		}
		fc.pop(isa.T1)
		fc.storeTo(isa.T1, isa.T0, lty)
		return lty, nil
	}

	// Compound: load current, evaluate rhs, apply, store.
	var binOp TokKind
	switch x.Op {
	case TPlusEq:
		binOp = TPlus
	case TMinusEq:
		binOp = TMinus
	case TStarEq:
		binOp = TStar
	case TSlashEq:
		binOp = TSlash
	case TPercentEq:
		binOp = TPercent
	}
	// current value
	fc.emit(isa.Instr{Op: isa.LD, Rd: isa.T1, Rs1: isa.SP, Imm: 0}) // addr
	fc.loadFrom(isa.T0, isa.T1, lty)
	fc.push(isa.T0) // current
	rty, err := fc.genExpr(x.R)
	if err != nil {
		return nil, err
	}
	rty = decay(rty)
	fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T1, Rs1: isa.T0}) // t1 = rhs
	fc.pop(isa.T0)                                            // t0 = current

	switch {
	case lty.Kind == isa.KPtr && (binOp == TPlus || binOp == TMinus) && isInteger(rty):
		fc.loadImmTo(isa.T2, fc.c.sizeOf(lty.Elem))
		fc.emit(isa.Instr{Op: isa.MUL, Rd: isa.T1, Rs1: isa.T1, Rs2: isa.T2})
		op := isa.ADD
		if binOp == TMinus {
			op = isa.SUB
		}
		fc.emit(isa.Instr{Op: op, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case lty.Kind == isa.KDouble || rty.Kind == isa.KDouble:
		if lty.Kind != isa.KDouble {
			return nil, fc.errf(x.Pos(), "compound assignment mixing %s and double", lty)
		}
		if rty.Kind != isa.KDouble {
			fc.emit(isa.Instr{Op: isa.ITOF, Rd: isa.T1, Rs1: isa.T1})
		}
		var op isa.Op
		switch binOp {
		case TPlus:
			op = isa.FADD
		case TMinus:
			op = isa.FSUB
		case TStar:
			op = isa.FMUL
		case TSlash:
			op = isa.FDIV
		default:
			return nil, fc.errf(x.Pos(), "%%= not defined on double")
		}
		fc.emit(isa.Instr{Op: op, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	case isInteger(lty) && isInteger(rty):
		var op isa.Op
		switch binOp {
		case TPlus:
			op = isa.ADD
		case TMinus:
			op = isa.SUB
		case TStar:
			op = isa.MUL
		case TSlash:
			op = isa.DIV
		case TPercent:
			op = isa.REM
		}
		fc.emit(isa.Instr{Op: op, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
	default:
		return nil, fc.errf(x.Pos(), "invalid compound assignment between %s and %s", lty, rty)
	}
	fc.pop(isa.T1) // address
	fc.storeTo(isa.T1, isa.T0, lty)
	return lty, nil
}

// genAddr evaluates e as an lvalue, leaving its address in t0 and returning
// the object's (undecayed) type.
func (fc *fnCompiler) genAddr(e Expr) (*isa.TypeInfo, error) {
	switch x := e.(type) {
	case *Ident:
		if lv := fc.lookup(x.Name); lv != nil {
			fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.FP, Imm: int32(lv.off)})
			return lv.ty, nil
		}
		if g, ok := fc.c.globals[x.Name]; ok {
			fc.loadImm(isa.T0, g.Offset)
			return g.Type, nil
		}
		if _, isEnum := fc.c.enums[x.Name]; isEnum {
			return nil, fc.errf(x.Pos(), "enum constant %q is not an lvalue", x.Name)
		}
		return nil, fc.errf(x.Pos(), "undefined variable %q", x.Name)
	case *UnaryExpr:
		if x.Op == TStar {
			ty, err := fc.genExpr(x.X)
			if err != nil {
				return nil, err
			}
			ty = decay(ty)
			if ty.Kind != isa.KPtr {
				return nil, fc.errf(x.Pos(), "cannot dereference %s", ty)
			}
			return ty.Elem, nil
		}
	case *IndexExpr:
		base, err := fc.genExpr(x.X) // decayed pointer value
		if err != nil {
			return nil, err
		}
		base = decay(base)
		if base.Kind != isa.KPtr {
			return nil, fc.errf(x.Pos(), "cannot index %s", base)
		}
		fc.push(isa.T0)
		ity, err := fc.genExpr(x.Index)
		if err != nil {
			return nil, err
		}
		if !isInteger(decay(ity)) {
			return nil, fc.errf(x.Pos(), "array index must be an integer")
		}
		fc.loadImmTo(isa.T2, fc.c.sizeOf(base.Elem))
		fc.emit(isa.Instr{Op: isa.MUL, Rd: isa.T1, Rs1: isa.T0, Rs2: isa.T2})
		fc.pop(isa.T0)
		fc.emit(isa.Instr{Op: isa.ADD, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.T1})
		return base.Elem, nil
	case *MemberExpr:
		var sty *isa.TypeInfo
		var err error
		if x.Arrow {
			sty, err = fc.genExpr(x.X)
			if err != nil {
				return nil, err
			}
			sty = decay(sty)
			if sty.Kind != isa.KPtr || sty.Elem.Kind != isa.KStruct {
				return nil, fc.errf(x.Pos(), "-> requires a struct pointer, got %s", sty)
			}
			sty = sty.Elem
		} else {
			sty, err = fc.genAddr(x.X)
			if err != nil {
				return nil, err
			}
			if sty.Kind != isa.KStruct {
				return nil, fc.errf(x.Pos(), ". requires a struct, got %s", sty)
			}
		}
		lay, ok := fc.c.structs[sty.Name]
		if !ok {
			return nil, fc.errf(x.Pos(), "undefined struct %q", sty.Name)
		}
		for _, f := range lay.Fields {
			if f.Name == x.Name {
				if f.Offset != 0 {
					fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.T0, Imm: int32(f.Offset)})
				}
				return f.Type, nil
			}
		}
		return nil, fc.errf(x.Pos(), "struct %s has no member %q", sty.Name, x.Name)
	}
	return nil, fc.errf(e.Pos(), "expression is not an lvalue")
}

// typeOf computes an expression's type without generating code (sizeof).
func (fc *fnCompiler) typeOf(e Expr) (*isa.TypeInfo, error) {
	switch x := e.(type) {
	case *IntLit, *CharLit:
		return isa.IntType(), nil
	case *FloatLit:
		return isa.DoubleType(), nil
	case *StrLit:
		return isa.PtrTo(isa.CharType()), nil
	case *Ident:
		if lv := fc.lookup(x.Name); lv != nil {
			return lv.ty, nil
		}
		if g, ok := fc.c.globals[x.Name]; ok {
			return g.Type, nil
		}
		if _, ok := fc.c.enums[x.Name]; ok {
			return isa.IntType(), nil
		}
		return nil, fc.errf(x.Pos(), "undefined variable %q", x.Name)
	case *UnaryExpr:
		if x.Op == TStar {
			t, err := fc.typeOf(x.X)
			if err != nil {
				return nil, err
			}
			t = decay(t)
			if t.Kind != isa.KPtr {
				return nil, fc.errf(x.Pos(), "cannot dereference %s", t)
			}
			return t.Elem, nil
		}
		if x.Op == TAmp {
			t, err := fc.typeOf(x.X)
			if err != nil {
				return nil, err
			}
			return isa.PtrTo(t), nil
		}
		return fc.typeOf(x.X)
	case *IndexExpr:
		t, err := fc.typeOf(x.X)
		if err != nil {
			return nil, err
		}
		t = decay(t)
		if t.Kind != isa.KPtr {
			return nil, fc.errf(x.Pos(), "cannot index %s", t)
		}
		return t.Elem, nil
	case *MemberExpr:
		t, err := fc.typeOf(x.X)
		if err != nil {
			return nil, err
		}
		t = decay(t)
		if x.Arrow {
			if t.Kind != isa.KPtr {
				return nil, fc.errf(x.Pos(), "-> on non-pointer")
			}
			t = t.Elem
		}
		if t.Kind != isa.KStruct {
			return nil, fc.errf(x.Pos(), "member access on non-struct")
		}
		lay := fc.c.structs[t.Name]
		if lay == nil {
			return nil, fc.errf(x.Pos(), "undefined struct %q", t.Name)
		}
		for _, f := range lay.Fields {
			if f.Name == x.Name {
				return f.Type, nil
			}
		}
		return nil, fc.errf(x.Pos(), "no member %q", x.Name)
	case *CastExpr:
		return x.Type, nil
	case *CallExpr:
		if sig, ok := fc.c.sigs[x.Fn]; ok {
			return sig.ret, nil
		}
		return isa.IntType(), nil
	case *BinaryExpr:
		lt, err := fc.typeOf(x.L)
		if err != nil {
			return nil, err
		}
		return lt, nil
	}
	return isa.IntType(), nil
}

func (fc *fnCompiler) genCall(x *CallExpr) (*isa.TypeInfo, error) {
	if builtinFuncs[x.Fn] {
		return fc.genBuiltin(x)
	}
	sig, ok := fc.c.sigs[x.Fn]
	if !ok {
		return nil, fc.errf(x.Pos(), "undefined function %q", x.Fn)
	}
	if len(x.Args) != len(sig.params) {
		return nil, fc.errf(x.Pos(), "%s expects %d arguments, got %d", x.Fn, len(sig.params), len(x.Args))
	}
	for i, a := range x.Args {
		ty, err := fc.genExpr(a)
		if err != nil {
			return nil, err
		}
		if err := fc.convert(a.Pos(), ty, sig.params[i].Type); err != nil {
			return nil, err
		}
		fc.push(isa.T0)
	}
	for i := len(x.Args) - 1; i >= 0; i-- {
		fc.pop(isa.Reg(int(isa.A0) + i))
	}
	idx := fc.emit(isa.Instr{Op: isa.JAL, Rd: isa.RA})
	fc.c.callFix = append(fc.c.callFix, nameFixup{idx: idx, name: x.Fn, line: x.Pos()})
	fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.A0})
	return sig.ret, nil
}

// genBuiltin expands compiler intrinsics (printf and friends).
func (fc *fnCompiler) genBuiltin(x *CallExpr) (*isa.TypeInfo, error) {
	ecall := func(svc int32) {
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: svc})
		fc.emit(isa.Instr{Op: isa.ECALL})
	}
	evalToA0 := func(a Expr) (*isa.TypeInfo, error) {
		ty, err := fc.genExpr(a)
		if err != nil {
			return nil, err
		}
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.T0})
		return decay(ty), nil
	}

	switch x.Fn {
	case "printf":
		if len(x.Args) == 0 {
			return nil, fc.errf(x.Pos(), "printf needs a format string")
		}
		fmtLit, ok := x.Args[0].(*StrLit)
		if !ok {
			return nil, fc.errf(x.Pos(), "printf format must be a string literal in MiniC")
		}
		return isa.IntType(), fc.expandPrintf(x, fmtLit.Value, x.Args[1:])
	case "puts":
		if len(x.Args) != 1 {
			return nil, fc.errf(x.Pos(), "puts takes one argument")
		}
		ty, err := evalToA0(x.Args[0])
		if err != nil {
			return nil, err
		}
		if !(ty.Kind == isa.KPtr && ty.Elem.Kind == isa.KChar) {
			return nil, fc.errf(x.Pos(), "puts requires a char*")
		}
		ecall(isa.SysPrintStr)
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: '\n'})
		ecall(isa.SysPrintChr)
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.Zero})
		return isa.IntType(), nil
	case "putchar":
		if len(x.Args) != 1 {
			return nil, fc.errf(x.Pos(), "putchar takes one argument")
		}
		if _, err := evalToA0(x.Args[0]); err != nil {
			return nil, err
		}
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T2, Rs1: isa.A0})
		ecall(isa.SysPrintChr)
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.T2})
		return isa.IntType(), nil
	case "exit":
		if len(x.Args) != 1 {
			return nil, fc.errf(x.Pos(), "exit takes one argument")
		}
		if _, err := evalToA0(x.Args[0]); err != nil {
			return nil, err
		}
		ecall(isa.SysExit)
		return isa.VoidType(), nil
	case "read_int":
		ecall(isa.SysReadInt)
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.A0})
		return isa.IntType(), nil
	case "read_char":
		ecall(isa.SysReadChr)
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.A0})
		return isa.IntType(), nil
	case "__sbrk":
		if len(x.Args) != 1 {
			return nil, fc.errf(x.Pos(), "__sbrk takes one argument")
		}
		if _, err := evalToA0(x.Args[0]); err != nil {
			return nil, err
		}
		ecall(isa.SysSbrk)
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.A0})
		return isa.PtrTo(isa.CharType()), nil
	}
	return nil, fc.errf(x.Pos(), "unknown builtin %q", x.Fn)
}

// expandPrintf lowers a printf call into a sequence of print ecalls.
func (fc *fnCompiler) expandPrintf(x *CallExpr, format string, args []Expr) error {
	ecall := func(svc int32) {
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: svc})
		fc.emit(isa.Instr{Op: isa.ECALL})
	}
	flushLit := func(lit string) {
		if lit == "" {
			return
		}
		addr := fc.c.strAddr(lit)
		fc.loadImmTo(isa.A0, int64(addr))
		ecall(isa.SysPrintStr)
	}
	argIdx := 0
	nextArg := func() (Expr, error) {
		if argIdx >= len(args) {
			return nil, fc.errf(x.Pos(), "printf: not enough arguments for format %q", format)
		}
		a := args[argIdx]
		argIdx++
		return a, nil
	}

	var lit strings.Builder
	i := 0
	for i < len(format) {
		ch := format[i]
		if ch != '%' {
			lit.WriteByte(ch)
			i++
			continue
		}
		i++
		if i >= len(format) {
			return fc.errf(x.Pos(), "printf: trailing %% in format")
		}
		// Skip l length modifiers (%ld, %lld).
		for i < len(format) && format[i] == 'l' {
			i++
		}
		if i >= len(format) {
			return fc.errf(x.Pos(), "printf: bad conversion in %q", format)
		}
		conv := format[i]
		i++
		if conv == '%' {
			lit.WriteByte('%')
			continue
		}
		flushLit(lit.String())
		lit.Reset()
		a, err := nextArg()
		if err != nil {
			return err
		}
		ty, err := fc.genExpr(a)
		if err != nil {
			return err
		}
		ty = decay(ty)
		fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.T0})
		switch conv {
		case 'd', 'i', 'u':
			if ty.Kind == isa.KDouble {
				fc.emit(isa.Instr{Op: isa.FTOI, Rd: isa.A0, Rs1: isa.A0})
			}
			ecall(isa.SysPrintInt)
		case 'c':
			ecall(isa.SysPrintChr)
		case 's':
			if !(ty.Kind == isa.KPtr && ty.Elem.Kind == isa.KChar) {
				return fc.errf(a.Pos(), "printf: %%s requires a char* argument")
			}
			ecall(isa.SysPrintStr)
		case 'f', 'g', 'e':
			if ty.Kind != isa.KDouble {
				fc.emit(isa.Instr{Op: isa.ITOF, Rd: isa.A0, Rs1: isa.A0})
			}
			ecall(isa.SysPrintFlt)
		case 'p', 'x':
			ecall(isa.SysPrintInt)
		default:
			return fc.errf(x.Pos(), "printf: unsupported conversion %%%c", conv)
		}
	}
	flushLit(lit.String())
	if argIdx != len(args) {
		return fc.errf(x.Pos(), "printf: too many arguments for format %q", format)
	}
	fc.emit(isa.Instr{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.Zero})
	return nil
}
