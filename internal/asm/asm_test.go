package asm

import (
	"strings"
	"testing"

	"easytracker/internal/isa"
	"easytracker/internal/vm"
)

// assemble assembles src and checks its line table: one entry per run of
// one line, PCs strictly increasing from TextBase.
func assemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := Assemble("t.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	runs := 0
	for i := range p.Instrs {
		if i == 0 || p.LineAt(isa.IndexToPC(i)) != p.LineAt(isa.IndexToPC(i-1)) {
			runs++
		}
	}
	if len(p.Lines) != runs || p.Lines[0].PC != isa.TextBase {
		t.Fatalf("%d line entries for %d runs: %v", len(p.Lines), runs, p.Lines)
	}
	for i := 1; i < len(p.Lines); i++ {
		if p.Lines[i].PC <= p.Lines[i-1].PC || p.Lines[i].Line == p.Lines[i-1].Line {
			t.Fatalf("line entry %d %+v after %+v", i, p.Lines[i], p.Lines[i-1])
		}
	}
	return p
}

func run(t *testing.T, src string, stdin string) (string, vm.Stop, *vm.Machine) {
	t.Helper()
	p := assemble(t, src)
	var out strings.Builder
	m, err := vm.New(p, vm.Config{Stdout: &out, Stdin: strings.NewReader(stdin)})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	stop := m.Run(0)
	return out.String(), stop, m
}

const helloSrc = `
    .data
msg: .asciz "hello\n"
    .text
    .global main
main:
    la a0, msg
    li a7, 2        # print_str
    ecall
    li a0, 0
    li a7, 0        # exit
    ecall
`

func TestHelloWorld(t *testing.T) {
	out, stop, _ := run(t, helloSrc, "")
	if stop.Kind != vm.StopExit || stop.ExitCode != 0 {
		t.Fatalf("stop %v code %d err %v", stop.Kind, stop.ExitCode, stop.Err)
	}
	if out != "hello\n" {
		t.Errorf("output %q", out)
	}
}

func TestLoopAndBranches(t *testing.T) {
	src := `
    .text
    .global main
main:
    li t0, 0        # i
    li t1, 0        # sum
loop:
    bge t0, t2, done    # t2 = 0... set below
    nop
done:
    li t2, 5
    li t0, 0
    li t1, 0
again:
    bge t0, t2, end
    add t1, t1, t0
    addi t0, t0, 1
    j again
end:
    mv a0, t1
    li a7, 1
    ecall           # print 0+1+2+3+4 = 10
    li a0, 0
    li a7, 0
    ecall
`
	out, stop, _ := run(t, src, "")
	if stop.Kind != vm.StopExit {
		t.Fatalf("stop %v err %v", stop.Kind, stop.Err)
	}
	if out != "10" {
		t.Errorf("output %q", out)
	}
}

func TestCallRetAndStackFrames(t *testing.T) {
	src := `
    .text
    .global main
    .global double
main:
    addi sp, sp, -16
    sd ra, 8(sp)
    li a0, 21
    call double
    ld ra, 8(sp)
    addi sp, sp, 16
    li a7, 1
    ecall
    li a0, 0
    li a7, 0
    ecall
double:
    add a0, a0, a0
    ret
`
	out, stop, _ := run(t, src, "")
	if stop.Kind != vm.StopExit {
		t.Fatalf("stop %v err %v", stop.Kind, stop.Err)
	}
	if out != "42" {
		t.Errorf("output %q", out)
	}
}

func TestDataDirectives(t *testing.T) {
	src := `
    .data
nums:  .word 10, 20, 30
bytes: .byte 1, 2
       .align 8
after: .word 99
    .text
    .global main
main:
    la t0, nums
    ld a0, 8(t0)    # nums[1]
    li a7, 1
    ecall
    li a0, 0
    li a7, 0
    ecall
`
	out, stop, m := run(t, src, "")
	if stop.Kind != vm.StopExit {
		t.Fatalf("stop %v err %v", stop.Kind, stop.Err)
	}
	if out != "20" {
		t.Errorf("output %q", out)
	}
	p := m.Prog()
	g := p.GlobalByName("after")
	if g == nil {
		t.Fatal("after symbol missing")
	}
	if uint64(g.Offset)%8 != 0 {
		t.Errorf("after not aligned: %#x", g.Offset)
	}
	v, err := m.ReadU64(uint64(g.Offset))
	if err != nil || v != 99 {
		t.Errorf("after = %d, %v", v, err)
	}
}

func TestFunctionsAndLineTable(t *testing.T) {
	p := assemble(t, helloSrc)
	f := p.FuncByName("main")
	if f == nil {
		t.Fatal("main not found")
	}
	if f.Entry != p.Entry {
		t.Errorf("entry mismatch: %#x vs %#x", f.Entry, p.Entry)
	}
	// Every instruction has a line.
	for i := range p.Instrs {
		if p.LineAt(isa.IndexToPC(i)) == 0 {
			t.Errorf("instruction %d has no line", i)
		}
	}
	// `la a0, msg` is on source line 7.
	if got := p.LineAt(p.Entry); got != 7 {
		t.Errorf("entry line = %d", got)
	}
}

func TestPseudoInstructions(t *testing.T) {
	src := `
    .text
    .global main
main:
    li t0, -5
    neg t1, t0          # 5
    not t2, t0          # 4
    snez t3, t0         # 1
    beqz zero, is_zero
    j fail
is_zero:
    bnez t0, not_zero
    j fail
not_zero:
    bltz t0, was_neg
    j fail
was_neg:
    bgtz t1, pos
    j fail
pos:
    ble t0, t1, le_ok
    j fail
le_ok:
    bgt t1, t0, done
fail:
    li a0, 1
    li a7, 0
    ecall
done:
    add a0, t1, t2      # 5+4 = 9
    add a0, a0, t3      # 10
    li a7, 0
    ecall
`
	_, stop, _ := run(t, src, "")
	if stop.Kind != vm.StopExit || stop.ExitCode != 10 {
		t.Fatalf("stop %v code %d err %v", stop.Kind, stop.ExitCode, stop.Err)
	}
}

func TestReadInt(t *testing.T) {
	src := `
    .text
    .global main
main:
    li a7, 6
    ecall
    mv t0, a0
    li a7, 6
    ecall
    add a0, a0, t0
    li a7, 1
    ecall
    li a0, 0
    li a7, 0
    ecall
`
	out, stop, _ := run(t, src, "20 22\n")
	if stop.Kind != vm.StopExit {
		t.Fatalf("stop %v", stop.Kind)
	}
	if out != "42" {
		t.Errorf("output %q", out)
	}
}

func TestMultipleRetsDetectable(t *testing.T) {
	// A hand-written function with two rets — the case the paper's
	// single-epilogue assumption misses; our scan finds both.
	src := `
    .text
    .global main
    .global par
main:
    li a0, 3
    call par
    li a7, 0
    ecall
par:
    andi t0, a0, 1
    beqz t0, even
    li a0, 1
    ret
even:
    li a0, 0
    ret
`
	p := assemble(t, src)
	f := p.FuncByName("par")
	if f == nil {
		t.Fatal("par missing")
	}
	rets := 0
	for _, d := range p.Disassemble(f.Entry, f.End) {
		if d.Instr.IsRet() {
			rets++
		}
	}
	if rets != 2 {
		t.Errorf("found %d rets, want 2", rets)
	}
}

func TestCommentsAndLabelsOnOwnLine(t *testing.T) {
	src := `
# full line comment
    .text
    .global main
main:               # label line
    li a0, 0        ; semicolon comment
    li a7, 0
    ecall
`
	out, stop, _ := run(t, src, "")
	_ = out
	if stop.Kind != vm.StopExit {
		t.Fatalf("stop %v err %v", stop.Kind, stop.Err)
	}
}

func TestAsmErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"    .text\n    frob a0, a1\n", "unknown instruction"},
		{"    .text\n    add a0\n", "expects 3 operands"},
		{"    .text\n    add a0, a1, qq\n", "bad register"},
		{"    .text\n    j nowhere\n", "undefined symbol"},
		{"    .text\nx:\nx:\n    nop\n", "duplicate label"},
		{"    .data\n    nop\n", "outside .text"},
		{"    .text\n    .bogus\n", "unknown directive"},
		{"    .text\n    li a0, 99999999999999\n", "out of 32-bit range"},
		{"    .data\nw: .word zz\n", "bad .word"},
		{"    .text\n    ld a0, nowhere\n", "bad memory operand"},
		{"", "no instructions"},
	}
	for _, c := range cases {
		_, err := Assemble("e.s", c.src)
		if err == nil {
			t.Errorf("Assemble(%q) succeeded", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) error %q, want %q", c.src, err, c.want)
		}
	}
}

func TestDisasmReassembleRoundTrip(t *testing.T) {
	// Disassembling the text and reassembling yields the same encoding
	// (labels become raw offsets, which the disassembler emits as
	// numbers the assembler accepts).
	p := assemble(t, helloSrc)
	var sb strings.Builder
	sb.WriteString(".text\n.global main\nmain:\n")
	for _, d := range p.Disassemble(isa.TextBase, isa.IndexToPC(len(p.Instrs))) {
		sb.WriteString("    " + d.Text + "\n")
	}
	p2, err := Assemble("rt.s", sb.String())
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, sb.String())
	}
	if len(p2.Instrs) != len(p.Instrs) {
		t.Fatalf("instruction count %d vs %d", len(p2.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		if p.Instrs[i] != p2.Instrs[i] {
			t.Errorf("instr %d: %v vs %v", i, p.Instrs[i], p2.Instrs[i])
		}
	}
}

func TestFloatOps(t *testing.T) {
	src := `
    .text
    .global main
main:
    li t0, 7
    itof t1, t0
    li t0, 2
    itof t2, t0
    fdiv a0, t1, t2
    li a7, 4
    ecall
    li a0, 0
    li a7, 0
    ecall
`
	out, stop, _ := run(t, src, "")
	if stop.Kind != vm.StopExit {
		t.Fatalf("stop %v err %v", stop.Kind, stop.Err)
	}
	if out != "3.5" {
		t.Errorf("output %q", out)
	}
}
