// Package asm implements a two-pass assembler for the isa package: labels,
// .text/.data sections, data directives, RISC-V-style pseudo-instructions
// (li, la, mv, j, call, ret, beqz, ...), and per-line debug information so
// assembly programs can be stepped at source-line granularity (the paper's
// Fig. 7 RISC-V viewer workflow).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"easytracker/internal/isa"
)

// AsmError is an assembly failure with position information.
type AsmError struct {
	File string
	Line int
	Msg  string
}

// Error implements error.
func (e *AsmError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

type section int

const (
	secText section = iota
	secData
)

// pendingInstr is a first-pass instruction awaiting label resolution.
type pendingInstr struct {
	line int
	op   string
	args []string
	pc   uint64
}

type assembler struct {
	file    string
	sec     section
	text    []pendingInstr
	data    []byte
	labels  map[string]uint64 // name -> address (text or data)
	globals []string          // .global names in order
}

// Assemble builds a program image from assembly source.
func Assemble(file, src string) (*isa.Program, error) {
	a := &assembler{
		file:   file,
		labels: map[string]uint64{},
	}
	lines := strings.Split(src, "\n")

	// Pass 1: record labels and instruction slots (pseudo-expansion size
	// must be known here, so expansion happens in pass 1 and operand
	// resolution in pass 2).
	for ln, raw := range lines {
		if err := a.scanLine(ln+1, raw); err != nil {
			return nil, err
		}
	}

	// Pass 2: resolve operands into instructions.
	prog := &isa.Program{
		SourceFile: file,
		Source:     src,
		Data:       a.data,
		Entry:      isa.TextBase,
	}
	for _, pi := range a.text {
		ins, err := a.resolve(pi)
		if err != nil {
			return nil, err
		}
		prog.Instrs = append(prog.Instrs, ins)
		prog.Lines = isa.AppendLine(prog.Lines, pi.pc, pi.line)
	}
	if len(prog.Instrs) == 0 {
		return nil, &AsmError{File: file, Line: 1, Msg: "no instructions"}
	}

	// Functions: every .global label in the text section opens a
	// function extending to the next text label that is also global, or
	// the end of text.
	end := isa.IndexToPC(len(prog.Instrs))
	var fnames []string
	for _, g := range a.globals {
		if addr, ok := a.labels[g]; ok && addr >= isa.TextBase && addr < end {
			fnames = append(fnames, g)
		}
	}
	for i, name := range fnames {
		fend := end
		for _, other := range fnames {
			oaddr := a.labels[other]
			if oaddr > a.labels[name] && oaddr < fend {
				fend = oaddr
			}
		}
		prog.Funcs = append(prog.Funcs, isa.FuncInfo{
			Name:  name,
			Entry: a.labels[name],
			End:   fend,
			Line:  prog.LineAt(a.labels[name]),
		})
		_ = i
	}
	if main, ok := a.labels["main"]; ok && main >= isa.TextBase && main < end {
		prog.Entry = main
	} else if start, ok := a.labels["_start"]; ok {
		prog.Entry = start
	}

	// Data labels become globals typed as raw words for the viewer.
	for name, addr := range a.labels {
		if addr >= isa.DataBase && addr < isa.DataBase+uint64(len(a.data)) {
			prog.Globals = append(prog.Globals, isa.VarInfo{
				Name: name, Type: isa.IntType(), Offset: int64(addr),
			})
		}
	}

	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &AsmError{File: a.file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// scanLine processes one source line in pass 1.
func (a *assembler) scanLine(ln int, raw string) error {
	line := raw
	if i := strings.IndexAny(line, "#;"); i >= 0 {
		// Don't strip inside string literals (.asciz "...#...").
		if q := strings.Index(line, "\""); q < 0 || q > i {
			line = line[:i]
		} else if e := strings.LastIndex(line, "\""); e >= 0 {
			if j := strings.IndexAny(line[e:], "#;"); j >= 0 {
				line = line[:e+j]
			}
		}
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}

	// Labels (possibly several on one line).
	for {
		i := strings.Index(line, ":")
		if i < 0 {
			break
		}
		name := strings.TrimSpace(line[:i])
		if !isIdent(name) {
			break
		}
		if _, dup := a.labels[name]; dup {
			return a.errf(ln, "duplicate label %q", name)
		}
		if a.sec == secText {
			a.labels[name] = isa.IndexToPC(len(a.text))
		} else {
			a.labels[name] = isa.DataBase + uint64(len(a.data))
		}
		line = strings.TrimSpace(line[i+1:])
	}
	if line == "" {
		return nil
	}

	if strings.HasPrefix(line, ".") {
		return a.directive(ln, line)
	}
	if a.sec != secText {
		return a.errf(ln, "instruction %q outside .text", line)
	}

	op, args := splitInstr(line)
	count, err := expansionSize(op, args)
	if err != nil {
		return a.errf(ln, "%v", err)
	}
	for i := 0; i < count; i++ {
		a.text = append(a.text, pendingInstr{
			line: ln, op: op, args: args,
			pc: isa.IndexToPC(len(a.text)),
		})
	}
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '.' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func splitInstr(line string) (string, []string) {
	fields := strings.SplitN(line, " ", 2)
	op := strings.TrimSpace(fields[0])
	if len(fields) == 1 {
		return op, nil
	}
	rest := strings.TrimSpace(fields[1])
	if rest == "" {
		return op, nil
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return op, parts
}

// expansionSize returns how many machine instructions the (possibly pseudo)
// instruction expands to.
func expansionSize(op string, args []string) (int, error) {
	switch op {
	case "li", "la", "mv", "j", "call", "ret", "nop", "neg", "not",
		"beqz", "bnez", "blez", "bgez", "bltz", "bgtz", "ble", "bgt",
		"snez", "tail":
		return 1, nil
	}
	if _, ok := isa.OpByName(op); !ok {
		return 0, fmt.Errorf("unknown instruction %q", op)
	}
	return 1, nil
}

func (a *assembler) directive(ln int, line string) error {
	fields := strings.SplitN(line, " ", 2)
	dir := fields[0]
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData
	case ".global", ".globl":
		if rest == "" {
			return a.errf(ln, "%s needs a symbol", dir)
		}
		a.globals = append(a.globals, rest)
	case ".word", ".quad", ".dword":
		if a.sec != secData {
			return a.errf(ln, "%s outside .data", dir)
		}
		for _, f := range strings.Split(rest, ",") {
			v, err := parseImm(strings.TrimSpace(f))
			if err != nil {
				return a.errf(ln, "bad .word operand: %v", err)
			}
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			a.data = append(a.data, b[:]...)
		}
	case ".byte":
		if a.sec != secData {
			return a.errf(ln, ".byte outside .data")
		}
		for _, f := range strings.Split(rest, ",") {
			v, err := parseImm(strings.TrimSpace(f))
			if err != nil {
				return a.errf(ln, "bad .byte operand: %v", err)
			}
			a.data = append(a.data, byte(v))
		}
	case ".asciz", ".string":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf(ln, "bad string literal %s", rest)
		}
		a.data = append(a.data, []byte(s)...)
		a.data = append(a.data, 0)
	case ".space", ".zero":
		n, err := parseImm(rest)
		if err != nil || n < 0 {
			return a.errf(ln, "bad .space size %q", rest)
		}
		a.data = append(a.data, make([]byte, n)...)
	case ".align":
		n, err := parseImm(rest)
		if err != nil || n <= 0 {
			return a.errf(ln, "bad .align %q", rest)
		}
		for uint64(len(a.data))%uint64(n) != 0 {
			a.data = append(a.data, 0)
		}
	default:
		return a.errf(ln, "unknown directive %s", dir)
	}
	return nil
}

func parseImm(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty immediate")
	}
	if len(s) == 3 && s[0] == '\'' && s[2] == '\'' {
		return int64(s[1]), nil
	}
	return strconv.ParseInt(s, 0, 64)
}

// operand resolution helpers

func (a *assembler) reg(ln int, s string) (isa.Reg, error) {
	r, ok := isa.RegByName(s)
	if !ok {
		return 0, a.errf(ln, "bad register %q", s)
	}
	return r, nil
}

// immOrLabel resolves an immediate, label address, or %lo-style arithmetic
// (label+offset).
func (a *assembler) immOrLabel(ln int, s string) (int64, error) {
	if v, err := parseImm(s); err == nil {
		return v, nil
	}
	base := s
	var off int64
	if i := strings.IndexAny(s, "+-"); i > 0 {
		v, err := parseImm(s[i:])
		if err == nil {
			base = s[:i]
			off = v
		}
	}
	if addr, ok := a.labels[base]; ok {
		return int64(addr) + off, nil
	}
	return 0, a.errf(ln, "undefined symbol %q", s)
}

// branchOff resolves a branch/jump target. A bare number is a pc-relative
// byte offset (what the disassembler prints); a label resolves to its
// pc-relative distance.
func (a *assembler) branchOff(ln int, target string, pc uint64) (int32, error) {
	if v, err := parseImm(target); err == nil {
		if int64(int32(v)) != v {
			return 0, a.errf(ln, "branch offset %q out of range", target)
		}
		return int32(v), nil
	}
	addr, err := a.immOrLabel(ln, target)
	if err != nil {
		return 0, err
	}
	diff := addr - int64(pc)
	if int64(int32(diff)) != diff {
		return 0, a.errf(ln, "branch target %q out of range", target)
	}
	return int32(diff), nil
}

func wantArgs(n int, args []string, ln int, a *assembler, op string) error {
	if len(args) != n {
		return a.errf(ln, "%s expects %d operands, got %d", op, n, len(args))
	}
	return nil
}

// memOperand parses "imm(reg)".
func (a *assembler) memOperand(ln int, s string) (int32, isa.Reg, error) {
	o := strings.Index(s, "(")
	c := strings.LastIndex(s, ")")
	if o < 0 || c <= o {
		return 0, 0, a.errf(ln, "bad memory operand %q", s)
	}
	immStr := strings.TrimSpace(s[:o])
	var imm int64
	if immStr != "" {
		v, err := a.immOrLabel(ln, immStr)
		if err != nil {
			return 0, 0, err
		}
		imm = v
	}
	r, err := a.reg(ln, strings.TrimSpace(s[o+1:c]))
	if err != nil {
		return 0, 0, err
	}
	if int64(int32(imm)) != imm {
		return 0, 0, a.errf(ln, "offset %d out of range", imm)
	}
	return int32(imm), r, nil
}

func (a *assembler) resolve(pi pendingInstr) (isa.Instr, error) {
	ln := pi.line
	op, args := pi.op, pi.args

	// Pseudo-instructions first.
	switch op {
	case "nop":
		return isa.Nop(), nil
	case "ret":
		return isa.Ret(), nil
	case "li":
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		v, err := a.immOrLabel(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		if int64(int32(v)) != v {
			return isa.Instr{}, a.errf(ln, "li immediate %d out of 32-bit range", v)
		}
		return isa.Instr{Op: isa.ADDI, Rd: rd, Rs1: isa.Zero, Imm: int32(v)}, nil
	case "la":
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		addr, ok := a.labels[args[1]]
		if !ok {
			return isa.Instr{}, a.errf(ln, "undefined symbol %q", args[1])
		}
		return isa.Instr{Op: isa.ADDI, Rd: rd, Rs1: isa.Zero, Imm: int32(addr)}, nil
	case "mv":
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: isa.ADDI, Rd: rd, Rs1: rs}, nil
	case "neg":
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: isa.SUB, Rd: rd, Rs1: isa.Zero, Rs2: rs}, nil
	case "not":
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: isa.XORI, Rd: rd, Rs1: rs, Imm: -1}, nil
	case "snez":
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: isa.SLTU, Rd: rd, Rs1: isa.Zero, Rs2: rs}, nil
	case "j", "call", "tail":
		if err := wantArgs(1, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		off, err := a.branchOff(ln, args[0], pi.pc)
		if err != nil {
			return isa.Instr{}, err
		}
		rd := isa.Zero
		if op == "call" {
			rd = isa.RA
		}
		return isa.Instr{Op: isa.JAL, Rd: rd, Imm: off}, nil
	case "beqz", "bnez", "blez", "bgez", "bltz", "bgtz":
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rs, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		off, err := a.branchOff(ln, args[1], pi.pc)
		if err != nil {
			return isa.Instr{}, err
		}
		switch op {
		case "beqz":
			return isa.Instr{Op: isa.BEQ, Rs1: rs, Rs2: isa.Zero, Imm: off}, nil
		case "bnez":
			return isa.Instr{Op: isa.BNE, Rs1: rs, Rs2: isa.Zero, Imm: off}, nil
		case "blez":
			return isa.Instr{Op: isa.BGE, Rs1: isa.Zero, Rs2: rs, Imm: off}, nil
		case "bgez":
			return isa.Instr{Op: isa.BGE, Rs1: rs, Rs2: isa.Zero, Imm: off}, nil
		case "bltz":
			return isa.Instr{Op: isa.BLT, Rs1: rs, Rs2: isa.Zero, Imm: off}, nil
		default: // bgtz
			return isa.Instr{Op: isa.BLT, Rs1: isa.Zero, Rs2: rs, Imm: off}, nil
		}
	case "ble", "bgt":
		if err := wantArgs(3, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rs1, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs2, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		off, err := a.branchOff(ln, args[2], pi.pc)
		if err != nil {
			return isa.Instr{}, err
		}
		if op == "ble" {
			return isa.Instr{Op: isa.BGE, Rs1: rs2, Rs2: rs1, Imm: off}, nil
		}
		return isa.Instr{Op: isa.BLT, Rs1: rs2, Rs2: rs1, Imm: off}, nil
	}

	o, _ := isa.OpByName(op)
	switch o {
	case isa.NOP, isa.ECALL, isa.EBREAK:
		if err := wantArgs(0, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: o}, nil
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR,
		isa.XOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU,
		isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FEQ, isa.FLT, isa.FLE:
		if err := wantArgs(3, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs1, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		rs2, err := a.reg(ln, args[2])
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: o, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
	case isa.FNEG, isa.ITOF, isa.FTOI:
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs1, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: o, Rd: rd, Rs1: rs1}, nil
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI,
		isa.SRAI, isa.SLTI:
		if err := wantArgs(3, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs1, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		v, err := a.immOrLabel(ln, args[2])
		if err != nil {
			return isa.Instr{}, err
		}
		if int64(int32(v)) != v {
			return isa.Instr{}, a.errf(ln, "immediate %d out of range", v)
		}
		return isa.Instr{Op: o, Rd: rd, Rs1: rs1, Imm: int32(v)}, nil
	case isa.LUI:
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		v, err := a.immOrLabel(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: o, Rd: rd, Imm: int32(v)}, nil
	case isa.LD, isa.LW, isa.LB, isa.LBU:
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		imm, rs1, err := a.memOperand(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: o, Rd: rd, Rs1: rs1, Imm: imm}, nil
	case isa.SD, isa.SW, isa.SB:
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rs2, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		imm, rs1, err := a.memOperand(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: o, Rs1: rs1, Rs2: rs2, Imm: imm}, nil
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		if err := wantArgs(3, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rs1, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs2, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		off, err := a.branchOff(ln, args[2], pi.pc)
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: o, Rs1: rs1, Rs2: rs2, Imm: off}, nil
	case isa.JAL:
		if err := wantArgs(2, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		off, err := a.branchOff(ln, args[1], pi.pc)
		if err != nil {
			return isa.Instr{}, err
		}
		return isa.Instr{Op: o, Rd: rd, Imm: off}, nil
	case isa.JALR:
		if err := wantArgs(3, args, ln, a, op); err != nil {
			return isa.Instr{}, err
		}
		rd, err := a.reg(ln, args[0])
		if err != nil {
			return isa.Instr{}, err
		}
		rs1, err := a.reg(ln, args[1])
		if err != nil {
			return isa.Instr{}, err
		}
		v, err := parseImm(args[2])
		if err != nil {
			return isa.Instr{}, a.errf(ln, "bad jalr offset %q", args[2])
		}
		return isa.Instr{Op: o, Rd: rd, Rs1: rs1, Imm: int32(v)}, nil
	}
	return isa.Instr{}, a.errf(ln, "unhandled instruction %q", op)
}
