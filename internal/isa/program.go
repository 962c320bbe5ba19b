package isa

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Memory layout constants shared by the toolchain, the machine, and the
// debugger.
const (
	// TextBase is the address of the first instruction.
	TextBase uint64 = 0x1000
	// DataBase is the start of the global/static data segment.
	DataBase uint64 = 0x10000
	// HeapBase is the initial program break; the heap grows upward from
	// here via the sbrk ecall.
	HeapBase uint64 = 0x100000
	// StackTop is the initial stack pointer; the stack grows downward.
	StackTop uint64 = 0x800000
)

// TypeKind classifies a source-level type in the debug information.
type TypeKind string

// Type kinds.
const (
	KInt    TypeKind = "int"    // 8 bytes, signed
	KChar   TypeKind = "char"   // 1 byte
	KDouble TypeKind = "double" // 8 bytes IEEE-754
	KVoid   TypeKind = "void"
	KPtr    TypeKind = "ptr"
	KArray  TypeKind = "array"
	KStruct TypeKind = "struct" // named; fields live in Program.Structs
	KFunc   TypeKind = "func"   // function designator (for pointers to code)
)

// TypeInfo is a serializable source-type descriptor (a DWARF-lite).
// Struct types are referenced by name to keep the encoding acyclic; their
// layout lives in Program.Structs.
type TypeInfo struct {
	Kind TypeKind  `json:"kind"`
	Elem *TypeInfo `json:"elem,omitempty"` // for ptr and array
	Len  int       `json:"len,omitempty"`  // for array
	Name string    `json:"name,omitempty"` // for struct
}

// StructLayout describes a named struct's field layout.
type StructLayout struct {
	Name   string      `json:"name"`
	Fields []FieldInfo `json:"fields"`
	Size   int64       `json:"size"`
}

// FieldInfo is one struct member.
type FieldInfo struct {
	Name   string    `json:"name"`
	Type   *TypeInfo `json:"type"`
	Offset int64     `json:"offset"`
}

// Sizeof computes the byte size of the type given the program's struct
// layouts.
func (t *TypeInfo) Sizeof(structs map[string]*StructLayout) int64 {
	switch t.Kind {
	case KInt, KDouble, KPtr, KFunc:
		return 8
	case KChar:
		return 1
	case KVoid:
		return 0
	case KArray:
		return int64(t.Len) * t.Elem.Sizeof(structs)
	case KStruct:
		if s, ok := structs[t.Name]; ok {
			return s.Size
		}
		return 0
	}
	return 0
}

// String renders the type in C syntax.
func (t *TypeInfo) String() string {
	if t == nil {
		return "?"
	}
	switch t.Kind {
	case KInt, KChar, KDouble, KVoid:
		return string(t.Kind)
	case KPtr:
		return t.Elem.String() + "*"
	case KArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case KStruct:
		return "struct " + t.Name
	case KFunc:
		return "function"
	}
	return string(t.Kind)
}

// Equal reports deep type equality.
func (t *TypeInfo) Equal(o *TypeInfo) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind || t.Len != o.Len || t.Name != o.Name {
		return false
	}
	if t.Elem == nil && o.Elem == nil {
		return true
	}
	return t.Elem.Equal(o.Elem)
}

// The scalar types are shared: nothing writes a TypeInfo once built, and
// types compare with Equal, never by pointer.
var (
	intType    = &TypeInfo{Kind: KInt}
	charType   = &TypeInfo{Kind: KChar}
	doubleType = &TypeInfo{Kind: KDouble}
	voidType   = &TypeInfo{Kind: KVoid}
)

// Convenience constructors.
func IntType() *TypeInfo          { return intType }
func CharType() *TypeInfo         { return charType }
func DoubleType() *TypeInfo       { return doubleType }
func VoidType() *TypeInfo         { return voidType }
func PtrTo(t *TypeInfo) *TypeInfo { return &TypeInfo{Kind: KPtr, Elem: t} }
func ArrayOf(t *TypeInfo, n int) *TypeInfo {
	return &TypeInfo{Kind: KArray, Elem: t, Len: n}
}
func StructType(name string) *TypeInfo { return &TypeInfo{Kind: KStruct, Name: name} }

// VarInfo locates one variable in the debug information.
type VarInfo struct {
	Name string    `json:"name"`
	Type *TypeInfo `json:"type"`
	// Offset is fp-relative for locals and parameters (negative, below
	// the frame pointer) and an absolute address for globals.
	Offset int64 `json:"offset"`
	// Param marks formal parameters.
	Param bool `json:"param,omitempty"`
	// Line is the declaration line.
	Line int `json:"line,omitempty"`
	// ScopeStart and ScopeEnd delimit the pc range in which the local is
	// in scope (both zero means the whole function). The debugger hides
	// locals whose declaration has not executed yet and block-scoped
	// locals outside their block.
	ScopeStart uint64 `json:"scope_start,omitempty"`
	ScopeEnd   uint64 `json:"scope_end,omitempty"`
}

// FuncInfo describes one function's code range and frame layout.
type FuncInfo struct {
	Name string `json:"name"`
	// Entry and End delimit the function's pc range [Entry, End).
	Entry uint64 `json:"entry"`
	End   uint64 `json:"end"`
	// FrameSize is the stack frame size in bytes.
	FrameSize int64 `json:"frame_size"`
	// PrologueEnd is the pc of the first instruction after the prologue;
	// function breakpoints land here so parameters are already stored in
	// their frame slots (the paper's "arguments are initialized"
	// guarantee). Zero means Entry.
	PrologueEnd uint64 `json:"prologue_end,omitempty"`
	// Locals lists parameters and locals with fp-relative offsets.
	Locals []VarInfo `json:"locals,omitempty"`
	// Line is the function's declaration line.
	Line int `json:"line,omitempty"`
	// BodyEnd is the last source line of the body.
	BodyEnd int `json:"body_end,omitempty"`
}

// LineEntry starts a run of instructions on one source line at PC. Entries
// are sorted by PC; an instruction's line is the entry with the greatest
// PC <= pc.
type LineEntry struct {
	PC   uint64 `json:"pc"`
	Line int    `json:"line"`
}

// AppendLine records that the instruction at pc, the next after those
// already recorded, is on line: it appends an entry only when line differs
// from the last entry's, so a table built this way holds one entry per run
// of one line.
func AppendLine(lines []LineEntry, pc uint64, line int) []LineEntry {
	if n := len(lines); n > 0 && lines[n-1].Line == line {
		return lines
	}
	return append(lines, LineEntry{PC: pc, Line: line})
}

// Program is a loadable, debuggable program image — the output of the
// assembler or the MiniC compiler and the input of the machine and MiniGDB.
// Serialized as JSON it plays the role of an object/executable file format.
type Program struct {
	// SourceFile is the display name of the main source file.
	SourceFile string `json:"source_file"`
	// Source is the program text, embedded for listing tools.
	Source string `json:"source,omitempty"`
	// Instrs is the text segment, loaded at TextBase.
	Instrs []Instr `json:"instrs"`
	// Data is the initial data segment, loaded at DataBase.
	Data []byte `json:"data,omitempty"`
	// Entry is the pc of the first instruction to execute.
	Entry uint64 `json:"entry"`
	// Funcs describes the functions, sorted by Entry.
	Funcs []FuncInfo `json:"funcs,omitempty"`
	// Globals lists global variables with absolute addresses.
	Globals []VarInfo `json:"globals,omitempty"`
	// Structs holds named struct layouts for the type descriptors.
	Structs map[string]*StructLayout `json:"structs,omitempty"`
	// Lines is the pc-to-line table, sorted by PC, with one entry per run
	// of one line (AppendLine). A table with an entry per instruction, as
	// older program files hold, answers LineAt and PCsForLine the same.
	Lines []LineEntry `json:"lines,omitempty"`
}

// MarshalInstr/UnmarshalInstr: instructions serialize as their encoded
// 8-byte form in hex for compactness and fidelity to the memory image.
func (i Instr) MarshalJSON() ([]byte, error) {
	b := i.Encode()
	return json.Marshal(fmt.Sprintf("%02x%02x%02x%02x%02x%02x%02x%02x",
		b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]))
}

// UnmarshalJSON decodes the hex form.
func (i *Instr) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s) != 16 {
		return fmt.Errorf("isa: bad instruction encoding %q", s)
	}
	var b [WordSize]byte
	for j := 0; j < WordSize; j++ {
		var v byte
		if _, err := fmt.Sscanf(s[2*j:2*j+2], "%02x", &v); err != nil {
			return err
		}
		b[j] = v
	}
	dec, err := Decode(b)
	if err != nil {
		return err
	}
	*i = dec
	return nil
}

// PCToIndex converts a text address to an instruction index.
func PCToIndex(pc uint64) (int, bool) {
	if pc < TextBase || (pc-TextBase)%WordSize != 0 {
		return 0, false
	}
	return int((pc - TextBase) / WordSize), true
}

// IndexToPC converts an instruction index to a text address.
func IndexToPC(idx int) uint64 { return TextBase + uint64(idx)*WordSize }

// FuncAt returns the function containing pc, or nil.
func (p *Program) FuncAt(pc uint64) *FuncInfo {
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if pc >= f.Entry && pc < f.End {
			return f
		}
	}
	return nil
}

// FuncByName returns the named function's info, or nil.
func (p *Program) FuncByName(name string) *FuncInfo {
	for i := range p.Funcs {
		if p.Funcs[i].Name == name {
			return &p.Funcs[i]
		}
	}
	return nil
}

// LineAt returns the source line for pc, or zero.
func (p *Program) LineAt(pc uint64) int {
	idx := sort.Search(len(p.Lines), func(i int) bool { return p.Lines[i].PC > pc })
	if idx == 0 {
		return 0
	}
	return p.Lines[idx-1].Line
}

// PCsForLine returns the addresses of the first instruction of each
// contiguous pc range attributed to the line (breakpoint placement sites).
func (p *Program) PCsForLine(line int) []uint64 {
	var out []uint64
	for i, e := range p.Lines {
		if e.Line == line && (i == 0 || p.Lines[i-1].Line != line) {
			out = append(out, e.PC)
		}
	}
	return out
}

// GlobalByName returns the named global's info, or nil.
func (p *Program) GlobalByName(name string) *VarInfo {
	for i := range p.Globals {
		if p.Globals[i].Name == name {
			return &p.Globals[i]
		}
	}
	return nil
}

// Disassemble renders instructions in [lo, hi) of the text segment as
// (pc, text) pairs.
func (p *Program) Disassemble(lo, hi uint64) []DisasmLine {
	var out []DisasmLine
	for pc := lo; pc < hi; pc += WordSize {
		idx, ok := PCToIndex(pc)
		if !ok || idx >= len(p.Instrs) {
			break
		}
		out = append(out, DisasmLine{PC: pc, Text: p.Instrs[idx].String(), Instr: p.Instrs[idx]})
	}
	return out
}

// DisasmLine is one line of disassembly.
type DisasmLine struct {
	PC    uint64 `json:"pc"`
	Text  string `json:"text"`
	Instr Instr  `json:"instr"`
}

// Validate performs structural sanity checks on a loaded image.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: program has no instructions")
	}
	if _, ok := PCToIndex(p.Entry); !ok {
		return fmt.Errorf("isa: bad entry point %#x", p.Entry)
	}
	end := IndexToPC(len(p.Instrs))
	if p.Entry >= end {
		return fmt.Errorf("isa: entry %#x beyond text end %#x", p.Entry, end)
	}
	for _, f := range p.Funcs {
		if f.Entry >= f.End || f.End > end {
			return fmt.Errorf("isa: function %s has bad range [%#x,%#x)", f.Name, f.Entry, f.End)
		}
	}
	for i := 1; i < len(p.Lines); i++ {
		if p.Lines[i].PC < p.Lines[i-1].PC {
			return fmt.Errorf("isa: line table not sorted at %d", i)
		}
	}
	return nil
}

// EncodeText returns the text segment's byte image (what lives at TextBase).
func (p *Program) EncodeText() []byte {
	out := make([]byte, 0, len(p.Instrs)*WordSize)
	for _, ins := range p.Instrs {
		b := ins.Encode()
		out = append(out, b[:]...)
	}
	return out
}
