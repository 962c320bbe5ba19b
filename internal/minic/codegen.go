package minic

import (
	"fmt"
	"sync"

	"easytracker/internal/isa"
	"easytracker/internal/rt"
)

// runtimeAST parses the runtime once per process. Every compile shares the
// *File, from concurrent goroutines too, so code generation only reads it.
var runtimeAST = sync.OnceValues(func() (*File, error) {
	return ParseFile("<runtime>", rt.Source)
})

// Compiler lowers a MiniC translation unit (plus the implicitly linked
// runtime) into an isa.Program with full debug information.
type Compiler struct {
	file    string
	structs map[string]*isa.StructLayout
	sigs    map[string]*funcSig
	globals map[string]*isa.VarInfo
	enums   map[string]int64

	data     []byte
	strPool  map[string]uint64
	constMem map[uint64]uint64 // 8-byte constant bits -> address

	instrs []isa.Instr
	lines  []isa.LineEntry // one entry per run of one line
	funcs  []isa.FuncInfo

	// fixups patched once all functions are placed.
	callFix []nameFixup // JAL imm := entry - pc
	addrFix []nameFixup // ADDI imm := entry (absolute)

	inRuntime bool
}

type nameFixup struct {
	idx  int
	name string
	line int
}

// Options configures compilation.
type Options struct {
	// NoRuntime omits the implicit runtime (used by runtime self-tests).
	NoRuntime bool
}

// Compile builds a debuggable program image from MiniC source. The runtime
// (allocator, interposition wrappers) is linked implicitly; it is parsed
// once per process.
func Compile(file, src string, opts ...Options) (*isa.Program, error) {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	userAST, err := ParseFile(file, src)
	if err != nil {
		return nil, err
	}
	c := &Compiler{
		file:     file,
		structs:  map[string]*isa.StructLayout{},
		sigs:     map[string]*funcSig{},
		globals:  map[string]*isa.VarInfo{},
		enums:    map[string]int64{},
		strPool:  map[string]uint64{},
		constMem: map[uint64]uint64{},
	}

	var rtAST *File
	if !opt.NoRuntime {
		rtAST, err = runtimeAST()
		if err != nil {
			return nil, fmt.Errorf("minic: internal runtime error: %w", err)
		}
	}

	// Declaration collection: structs, enums, globals, signatures — user
	// first so diagnostics prefer user lines.
	units := []*File{userAST}
	if rtAST != nil {
		units = append(units, rtAST)
	}
	for _, u := range units {
		if err := c.collect(u); err != nil {
			return nil, err
		}
	}
	if c.sigs["main"] == nil {
		return nil, &Error{File: file, Line: 1, Msg: "no main function defined"}
	}
	if len(c.sigs["main"].params) != 0 {
		return nil, &Error{File: file, Line: c.sigs["main"].line,
			Msg: "main must take no parameters in MiniC"}
	}

	// Lay out globals.
	for _, u := range units {
		if err := c.layoutGlobals(u); err != nil {
			return nil, err
		}
	}
	// Fill global initializers (may append strings to data).
	for _, u := range units {
		if err := c.initGlobals(u); err != nil {
			return nil, err
		}
	}

	// _start shim.
	c.genStart()

	// User functions, then runtime functions (with no line info so
	// stepping treats them as opaque, like libc without -g).
	for _, d := range userAST.Decls {
		if fd, ok := d.(*FuncDecl); ok {
			if err := c.genFunc(fd); err != nil {
				return nil, err
			}
		}
	}
	if rtAST != nil {
		c.inRuntime = true
		for _, d := range rtAST.Decls {
			if fd, ok := d.(*FuncDecl); ok {
				if err := c.genFunc(fd); err != nil {
					return nil, err
				}
			}
		}
		c.inRuntime = false
	}

	// Resolve cross-function fixups.
	for _, f := range c.callFix {
		fn := c.funcByName(f.name)
		if fn == nil {
			return nil, &Error{File: file, Line: f.line, Msg: fmt.Sprintf("undefined function %q", f.name)}
		}
		pc := isa.IndexToPC(f.idx)
		c.instrs[f.idx].Imm = int32(int64(fn.Entry) - int64(pc))
	}
	for _, f := range c.addrFix {
		fn := c.funcByName(f.name)
		if fn == nil {
			return nil, &Error{File: file, Line: f.line, Msg: fmt.Sprintf("undefined function %q", f.name)}
		}
		c.instrs[f.idx].Imm = int32(fn.Entry)
	}

	prog := &isa.Program{
		SourceFile: file,
		Source:     src,
		Instrs:     c.instrs,
		Data:       c.data,
		Entry:      isa.TextBase, // _start is first
		Funcs:      c.funcs,
		Structs:    c.structs,
		Lines:      c.lines,
	}
	for _, g := range c.globalOrderles() {
		prog.Globals = append(prog.Globals, *g)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("minic: internal error: %w", err)
	}
	return prog, nil
}

// globalOrderles returns globals sorted by address for stable output.
func (c *Compiler) globalOrderles() []*isa.VarInfo {
	out := make([]*isa.VarInfo, 0, len(c.globals))
	for _, g := range c.globals {
		out = append(out, g)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Offset < out[i].Offset {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func (c *Compiler) funcByName(name string) *isa.FuncInfo {
	for i := range c.funcs {
		if c.funcs[i].Name == name {
			return &c.funcs[i]
		}
	}
	return nil
}

func (c *Compiler) collect(u *File) error {
	var walkDecl func(d Decl) error
	walkDecl = func(d Decl) error {
		switch dd := d.(type) {
		case *declGroup:
			for _, inner := range dd.Decls {
				if err := walkDecl(inner); err != nil {
					return err
				}
			}
		case *StructDecl:
			if _, dup := c.structs[dd.Name]; dup {
				return &Error{File: u.Name, Line: dd.Pos(), Msg: fmt.Sprintf("struct %q redefined", dd.Name)}
			}
			lay, err := c.layoutStruct(dd)
			if err != nil {
				return err
			}
			c.structs[dd.Name] = lay
		case *EnumDecl:
			for i, n := range dd.Names {
				if _, dup := c.enums[n]; dup {
					return &Error{File: u.Name, Line: dd.Pos(), Msg: fmt.Sprintf("enum constant %q redefined", n)}
				}
				c.enums[n] = dd.Values[i]
			}
		case *FuncDecl:
			if _, dup := c.sigs[dd.Name]; dup {
				return &Error{File: u.Name, Line: dd.Pos(), Msg: fmt.Sprintf("function %q redefined", dd.Name)}
			}
			if builtinFuncs[dd.Name] {
				return &Error{File: u.Name, Line: dd.Pos(), Msg: fmt.Sprintf("%q is a built-in function", dd.Name)}
			}
			c.sigs[dd.Name] = &funcSig{name: dd.Name, ret: dd.Ret, params: dd.Params, line: dd.Pos()}
		}
		return nil
	}
	for _, d := range u.Decls {
		if err := walkDecl(d); err != nil {
			return err
		}
	}
	return nil
}

func (c *Compiler) layoutGlobals(u *File) error {
	var walk func(d Decl) error
	walk = func(d Decl) error {
		switch dd := d.(type) {
		case *declGroup:
			for _, inner := range dd.Decls {
				if err := walk(inner); err != nil {
					return err
				}
			}
		case *GlobalDecl:
			if _, dup := c.globals[dd.Name]; dup {
				return &Error{File: u.Name, Line: dd.Pos(), Msg: fmt.Sprintf("global %q redefined", dd.Name)}
			}
			size := c.sizeOf(dd.Type)
			if size == 0 {
				return &Error{File: u.Name, Line: dd.Pos(), Msg: fmt.Sprintf("global %q has incomplete type %s", dd.Name, dd.Type)}
			}
			addr := isa.DataBase + uint64(align(int64(len(c.data)), c.alignOf(dd.Type)))
			pad := int(addr-isa.DataBase) - len(c.data)
			c.data = append(c.data, make([]byte, pad+int(size))...)
			c.globals[dd.Name] = &isa.VarInfo{
				Name: dd.Name, Type: dd.Type, Offset: int64(addr), Line: dd.Pos(),
			}
		}
		return nil
	}
	for _, d := range u.Decls {
		if err := walk(d); err != nil {
			return err
		}
	}
	return nil
}

func (c *Compiler) initGlobals(u *File) error {
	var walk func(d Decl) error
	walk = func(d Decl) error {
		gd, ok := d.(*GlobalDecl)
		if !ok {
			if grp, isGrp := d.(*declGroup); isGrp {
				for _, inner := range grp.Decls {
					if err := walk(inner); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if gd.Init == nil {
			return nil
		}
		g := c.globals[gd.Name]
		base := uint64(g.Offset)
		if lst, isList := gd.Init.(*InitListExpr); isList {
			if gd.Type.Kind != isa.KArray {
				return &Error{File: u.Name, Line: gd.Pos(), Msg: "brace initializer on non-array global"}
			}
			if len(lst.Elems) > gd.Type.Len {
				return &Error{File: u.Name, Line: gd.Pos(), Msg: "too many initializers"}
			}
			esz := c.sizeOf(gd.Type.Elem)
			for i, e := range lst.Elems {
				if err := c.storeConst(u, e, gd.Type.Elem, base+uint64(int64(i)*esz)); err != nil {
					return err
				}
			}
			return nil
		}
		return c.storeConst(u, gd.Init, gd.Type, base)
	}
	for _, d := range u.Decls {
		if err := walk(d); err != nil {
			return err
		}
	}
	return nil
}

// storeConst writes a constant initializer into the data image.
func (c *Compiler) storeConst(u *File, e Expr, ty *isa.TypeInfo, addr uint64) error {
	cv, err := c.constEval(e)
	if err != nil {
		return err
	}
	off := addr - isa.DataBase
	switch {
	case cv.isStr:
		if !(ty.Kind == isa.KPtr && ty.Elem.Kind == isa.KChar) {
			return &Error{File: u.Name, Line: e.Pos(), Msg: "string initializer on non-char* global"}
		}
		sa := c.strAddr(cv.str)
		putU64(c.data[off:], sa)
	case ty.Kind == isa.KDouble:
		f := cv.f
		if !cv.isFloat {
			f = float64(cv.i)
		}
		putU64(c.data[off:], float64bits(f))
	case ty.Kind == isa.KChar:
		c.data[off] = byte(cv.i)
	case isScalar(ty):
		putU64(c.data[off:], uint64(cv.i))
	default:
		return &Error{File: u.Name, Line: e.Pos(), Msg: fmt.Sprintf("cannot initialize global of type %s", ty)}
	}
	return nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// strAddr interns a string literal in the data segment.
func (c *Compiler) strAddr(s string) uint64 {
	if a, ok := c.strPool[s]; ok {
		return a
	}
	addr := isa.DataBase + uint64(len(c.data))
	c.data = append(c.data, []byte(s)...)
	c.data = append(c.data, 0)
	c.strPool[s] = addr
	return addr
}

// constSlot interns an 8-byte constant in the data segment, for immediates
// too wide for an instruction (big ints, doubles).
func (c *Compiler) constSlot(bits uint64) uint64 {
	if a, ok := c.constMem[bits]; ok {
		return a
	}
	pad := (8 - len(c.data)%8) % 8
	c.data = append(c.data, make([]byte, pad)...)
	addr := isa.DataBase + uint64(len(c.data))
	var b [8]byte
	putU64(b[:], bits)
	c.data = append(c.data, b[:]...)
	c.constMem[bits] = addr
	return addr
}

func float64bits(f float64) uint64 {
	// local copy to avoid importing math twice in hot paths
	return mathFloat64bits(f)
}

func (c *Compiler) genStart() {
	start := len(c.instrs)
	c.emitAt(0, isa.Instr{Op: isa.JAL, Rd: isa.RA}) // call main, patched
	c.callFix = append(c.callFix, nameFixup{idx: start, name: "main"})
	c.emitAt(0, isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysExit})
	c.emitAt(0, isa.Instr{Op: isa.ECALL})
	c.funcs = append(c.funcs, isa.FuncInfo{
		Name:  "_start",
		Entry: isa.IndexToPC(start),
		End:   isa.IndexToPC(len(c.instrs)),
	})
}

// emitAt appends one instruction attributed to the given source line.
func (c *Compiler) emitAt(line int, ins isa.Instr) int {
	idx := len(c.instrs)
	if c.inRuntime {
		line = 0
	}
	c.instrs = append(c.instrs, ins)
	c.lines = isa.AppendLine(c.lines, isa.IndexToPC(idx), line)
	return idx
}
