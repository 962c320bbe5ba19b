package minipy

import (
	"fmt"
	"strings"
)

// This file defines the bytecode form MiniPy modules are lowered to: a flat
// instruction stream per code object (module body, each function body), a
// constant pool, and compile-time slot resolution for names. The compiler
// lives in compile.go and the dispatch loop in vm.go; together they execute
// MiniPy under the trace hook contract (an opLine before each statement,
// fired through fireLine) and the mutation-epoch write barriers (every
// binding write goes through Scope.setSlot / Scope.Set, every in-place
// mutation through Interp.stamp).

// Opcode enumerates the VM instructions.
type Opcode uint8

// Instruction opcodes. Operand meanings are given per opcode; A and B are
// the instruction operands, Line is the source line used for trace events
// and runtime error positions.
const (
	opInvalid Opcode = iota

	// opLine fires the EventLine trace hook for Line (and charges the
	// step budget) before the statement at Line executes.
	opLine

	// Stack pushes.
	opConst // A=constant index
	opNone
	opTrue
	opFalse

	// Name access. Local ops index the frame scope's slot array; global
	// ops index the module scope's slot array. B names the identifier
	// (index into Program.names) for error messages and the dynamic
	// fallbacks.
	opLoadLocal    // A=slot, B=name; nil slot falls back to globals
	opStoreLocal   // A=slot, B=name
	opDelLocal     // A=slot, B=name
	opLoadGlobal   // A=slot, B=name
	opStoreGlobal  // A=slot, B=name
	opDelGlobal    // A=slot, B=name
	opLoadGlobalN  // B=name; map-path fallback for names outside the symtab
	opStoreGlobalN // B=name
	opDelGlobalN   // B=name
	opRaiseNameErr // B=name; always "name 'x' is not defined"

	// Stack shuffling and control flow. Jump targets are absolute
	// instruction indices.
	opPop
	opDup
	opJump        // A=target
	opJumpIfFalse // A=target; pops the condition
	opJumpAndKeep // A=target; `and`: jump keeping TOS when falsy, else pop
	opJumpOrKeep  // A=target; `or`: jump keeping TOS when truthy, else pop

	// Operators.
	opNeg
	opPos
	opNot
	opBinOp   // A=TokKind
	opAugAdd  // A=skip target; in-place list += fast path, else push l+r
	opCompare // A=TokKind (includes KwIn/NotIn)
	opCmpMid  // A=false target, B=TokKind; chained-comparison middle link

	// Containers and subscripting.
	opMakeList   // A=element count
	opMakeTuple  // A=element count
	opMakeDict   // pushes an empty dict
	opDictSet    // [d k v] -> [d], insertion keeps literal eval order
	opIndex      // [obj idx] -> [obj[idx]]
	opStoreIndex // [val obj idx] -> []
	opDelIndex   // [obj idx] -> []
	opSliceCheck // TOS must be sliceable (checked before bound evaluation)
	opSliceBound // TOS must be an int slice bound
	opSlice      // A=mask (1=lo present, 2=hi present)
	opAttr       // B=name; [obj] -> [obj.name]
	opStoreAttr  // B=name; [val obj] -> []

	// opUnpack pops a sequence and pushes its A items in reverse, so the
	// first element lands on top for the per-target stores that follow.
	opUnpack // A=target count

	// Calls, definitions, returns.
	opCall      // A=argc; [fn a1..an] -> [ret]
	opReturn    // pops and returns TOS from the code object
	opMakeFunc  // A=funcs index; pushes a fresh OFunc
	opMakeClass // A=classes index, B=member count; pops members, pushes OClass

	// For-loop iteration. A for loop holds its snapshot in an iterator
	// register (per static nesting depth).
	opIterNew      // A=register; pops the iterable, snapshots its items
	opIterNext     // A=jump-if-exhausted, B=register; pushes the next item
	opIterNextLine // same, but re-fires the line event first (iterations >= 2)

	// opRaise raises a precomputed runtime error (A=Program.msgs index).
	// The compiler is total: constructs that are errors only when
	// executed (break outside a loop, bad assignment targets, ...) lower
	// to that error at the statement's line.
	opRaise
)

var opNames = [...]string{
	opInvalid: "INVALID", opLine: "LINE",
	opConst: "CONST", opNone: "NONE", opTrue: "TRUE", opFalse: "FALSE",
	opLoadLocal: "LOAD_LOCAL", opStoreLocal: "STORE_LOCAL", opDelLocal: "DEL_LOCAL",
	opLoadGlobal: "LOAD_GLOBAL", opStoreGlobal: "STORE_GLOBAL", opDelGlobal: "DEL_GLOBAL",
	opLoadGlobalN: "LOAD_GLOBAL_NAME", opStoreGlobalN: "STORE_GLOBAL_NAME",
	opDelGlobalN: "DEL_GLOBAL_NAME", opRaiseNameErr: "RAISE_NAME_ERROR",
	opPop: "POP", opDup: "DUP",
	opJump: "JUMP", opJumpIfFalse: "JUMP_IF_FALSE",
	opJumpAndKeep: "JUMP_AND_KEEP", opJumpOrKeep: "JUMP_OR_KEEP",
	opNeg: "NEG", opPos: "POS", opNot: "NOT",
	opBinOp: "BINOP", opAugAdd: "AUG_ADD", opCompare: "COMPARE", opCmpMid: "CMP_MID",
	opMakeList: "MAKE_LIST", opMakeTuple: "MAKE_TUPLE", opMakeDict: "MAKE_DICT",
	opDictSet: "DICT_SET",
	opIndex:   "INDEX", opStoreIndex: "STORE_INDEX", opDelIndex: "DEL_INDEX",
	opSliceCheck: "SLICE_CHECK", opSliceBound: "SLICE_BOUND", opSlice: "SLICE",
	opAttr: "ATTR", opStoreAttr: "STORE_ATTR", opUnpack: "UNPACK",
	opCall: "CALL", opReturn: "RETURN",
	opMakeFunc: "MAKE_FUNC", opMakeClass: "MAKE_CLASS",
	opIterNew: "ITER_NEW", opIterNext: "ITER_NEXT", opIterNextLine: "ITER_NEXT_LINE",
	opRaise: "RAISE",
}

// String names the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("Opcode(%d)", int(op))
}

// Instr is one bytecode instruction: opcode, two operands, and the source
// line it belongs to (the line table is stored inline, one entry per
// instruction, trading 4 bytes for a branch-free error/trace position).
type Instr struct {
	Op   Opcode
	A, B int32
	Line int32
}

// symtab maps the statically known names of a scope to slot indices; slot i
// stores the binding of names[i].
type symtab struct {
	index map[string]int
	names []string
}

func newSymtab() *symtab {
	// Sized for the common case: the module symtab starts with the 25
	// builtins plus argv before any user name is interned.
	return &symtab{index: make(map[string]int, 32), names: make([]string, 0, 32)}
}

// add interns a name, returning its slot.
func (st *symtab) add(name string) int {
	if i, ok := st.index[name]; ok {
		return i
	}
	i := len(st.names)
	st.index[name] = i
	st.names = append(st.names, name)
	return i
}

// Code is one compiled code object: the module body or a function body.
type Code struct {
	name string
	prog *Program
	// idx is a function body's position in Program.funcs (0 for the
	// module body, which has no entry there).
	idx int
	ops []Instr
	// syms is the local symtab; nil for the module code object, whose
	// name operations go through the module scope directly.
	syms *symtab
	// paramSlots maps parameter position to local slot (identity except
	// for duplicate parameter names, where the last binding wins).
	paramSlots []int32
	// numIters is the number of iterator registers (max static for-loop
	// nesting depth); maxStack bounds the operand stack depth.
	numIters int
	maxStack int
}

// constant is a compile-time constant pool entry; the interpreter
// materializes the pool into *Objects once per run (objects carry per-
// interpreter identities, so the pool itself must stay interpreter-free).
type constant struct {
	kind ObjKind // OInt, OFloat or OStr
	i    int64
	f    float64
	s    string
}

// funcProto is the compile-time description of a def statement; executing
// the def instantiates a fresh Function from it, as Python builds a new
// function object each time the def line runs.
type funcProto struct {
	name    string
	params  []string
	defLine int
	endLine int
	code    *Code
}

// classProto is the compile-time description of a class statement; members
// (methods and class-level assignments) are evaluated onto the stack in
// declaration order and folded into a Class by opMakeClass.
type classProto struct {
	name    string
	defLine int
	members []string
}

// Program is a compiled module: the module code object plus the pools
// shared by every code object in it.
type Program struct {
	module  *Module
	code    *Code
	consts  []constant
	names   []string
	msgs    []string
	funcs   []*funcProto
	classes []*classProto
	// modSyms is the module-scope symtab: builtins, argv, every name
	// assigned at module level and every name declared global anywhere,
	// so module-scope loads and stores are single slot-array accesses.
	modSyms *symtab
}

// Disasm renders the program as a human-readable listing: one code object
// per section with opcode, operands (symbolically resolved) and the source
// line table inline. The output is deterministic for a given source.
func (p *Program) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\n", p.module.File)
	fmt.Fprintf(&b, "globals (%d slots):", len(p.modSyms.names))
	for _, n := range p.modSyms.names {
		b.WriteString(" " + n)
	}
	b.WriteString("\n\n")
	p.code.disasm(&b, p)
	for _, fp := range p.funcs {
		b.WriteString("\n")
		fp.code.disasm(&b, p)
	}
	return b.String()
}

func (c *Code) disasm(b *strings.Builder, p *Program) {
	fmt.Fprintf(b, "%s (stack=%d, iters=%d", c.name, c.maxStack, c.numIters)
	if c.syms != nil {
		fmt.Fprintf(b, ", locals=%d", len(c.syms.names))
	}
	b.WriteString(")\n")
	for i, ins := range c.ops {
		fmt.Fprintf(b, "  %04d  %-18s", i, ins.Op.String())
		b.WriteString(c.operands(p, ins))
		fmt.Fprintf(b, "  ; line %d\n", ins.Line)
	}
}

// operands renders an instruction's operand column, resolving pool indices
// to their symbolic values.
func (c *Code) operands(p *Program, ins Instr) string {
	pad := func(s string) string { return fmt.Sprintf("%-24s", s) }
	switch ins.Op {
	case opConst:
		k := p.consts[ins.A]
		switch k.kind {
		case OInt:
			return pad(fmt.Sprintf("%d (%d)", ins.A, k.i))
		case OFloat:
			return pad(fmt.Sprintf("%d (%g)", ins.A, k.f))
		default:
			return pad(fmt.Sprintf("%d (%q)", ins.A, k.s))
		}
	case opLoadLocal, opStoreLocal, opDelLocal, opLoadGlobal, opStoreGlobal, opDelGlobal:
		return pad(fmt.Sprintf("slot %d (%s)", ins.A, p.names[ins.B]))
	case opLoadGlobalN, opStoreGlobalN, opDelGlobalN, opRaiseNameErr, opAttr, opStoreAttr:
		return pad(p.names[ins.B])
	case opJump, opJumpIfFalse, opJumpAndKeep, opJumpOrKeep, opAugAdd:
		return pad(fmt.Sprintf("-> %04d", ins.A))
	case opBinOp, opCompare:
		return pad(opTokName(TokKind(ins.A)))
	case opCmpMid:
		return pad(fmt.Sprintf("-> %04d %s", ins.A, opTokName(TokKind(ins.B))))
	case opMakeList, opMakeTuple, opCall, opSlice, opUnpack:
		return pad(fmt.Sprintf("%d", ins.A))
	case opMakeFunc:
		return pad(fmt.Sprintf("%d (%s)", ins.A, p.funcs[ins.A].name))
	case opMakeClass:
		return pad(fmt.Sprintf("%d (%s) members=%d", ins.A, p.classes[ins.A].name, ins.B))
	case opIterNew:
		return pad(fmt.Sprintf("reg %d", ins.A))
	case opIterNext, opIterNextLine:
		return pad(fmt.Sprintf("-> %04d reg %d", ins.A, ins.B))
	case opRaise:
		return pad(fmt.Sprintf("%d (%q)", ins.A, p.msgs[ins.A]))
	default:
		return pad("")
	}
}

// opTokName names a TokKind operand, covering the NotIn pseudo-kind.
func opTokName(k TokKind) string {
	if k == NotIn {
		return "not in"
	}
	return k.String()
}
