package asm

import (
	"strings"
	"testing"

	"easytracker/internal/isa"
	"easytracker/internal/vm"
)

func TestAllPseudoOperandErrors(t *testing.T) {
	cases := []string{
		"    .text\n    li a0\n",
		"    .text\n    li zz, 1\n",
		"    .text\n    la a0, missing\n",
		"    .text\n    mv a0\n",
		"    .text\n    mv a0, zz\n",
		"    .text\n    neg a0, zz\n",
		"    .text\n    not zz, a0\n",
		"    .text\n    snez a0, zz\n",
		"    .text\n    j\n",
		"    .text\n    beqz a0\n",
		"    .text\n    beqz zz, somewhere\n",
		"    .text\n    ble a0, a1\n",
		"    .text\n    jal a0\n",
		"    .text\n    jalr a0, a1, bad\n",
		"    .text\n    lui a0\n",
		"    .text\n    sd a0, nowhere(sp\n",
		"    .text\n    fadd a0, a1\n",
		"    .text\n    itof a0\n",
		"    .text\n    ecall a0\n",
	}
	for _, src := range cases {
		if _, err := Assemble("e.s", src); err == nil {
			t.Errorf("Assemble(%q) succeeded", src)
		}
	}
}

func TestDirectiveErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"    .global\n    .text\n    nop\n", "needs a symbol"},
		{"    .text\n    .word 1\n", "outside .data"},
		{"    .text\n    .byte 1\n", "outside .data"},
		{"    .data\nw: .byte zz\n", "bad .byte"},
		{"    .data\ns: .asciz unquoted\n", "bad string"},
		{"    .data\nb: .space -4\n", "bad .space"},
		{"    .data\nb: .align 0\n", "bad .align"},
	}
	for _, c := range cases {
		_, err := Assemble("e.s", c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestCharLiteralImmediate(t *testing.T) {
	src := `    .text
    .global main
main:
    li a0, 'A'
    li a7, 3
    ecall
    li a0, 0
    li a7, 0
    ecall
`
	out, stop, _ := run(t, src, "")
	if stop.Kind != vm.StopExit || out != "A" {
		t.Errorf("stop=%v out=%q", stop.Kind, out)
	}
}

func TestLabelArithmetic(t *testing.T) {
	src := `    .data
tbl: .word 10, 20, 30
    .text
    .global main
main:
    ld a0, tbl+8(zero)
    li a7, 1
    ecall
    li a0, 0
    li a7, 0
    ecall
`
	out, stop, _ := run(t, src, "")
	if stop.Kind != vm.StopExit || out != "20" {
		t.Errorf("stop=%v out=%q", stop.Kind, out)
	}
}

func TestStartSymbolEntry(t *testing.T) {
	src := `    .text
    .global _start
_start:
    li a0, 3
    li a7, 0
    ecall
`
	p := assemble(t, src)
	if p.Entry != isa.TextBase {
		t.Errorf("entry = %#x", p.Entry)
	}
	m, _ := vm.New(p, vm.Config{})
	if stop := m.Run(0); stop.Kind != vm.StopExit || stop.ExitCode != 3 {
		t.Errorf("stop %v code %d", stop.Kind, stop.ExitCode)
	}
}

func TestMultipleGlobalsFunctionRanges(t *testing.T) {
	src := `    .text
    .global main
    .global helper
main:
    call helper
    li a7, 0
    ecall
helper:
    li a0, 1
    ret
`
	p := assemble(t, src)
	mainFn := p.FuncByName("main")
	helperFn := p.FuncByName("helper")
	if mainFn == nil || helperFn == nil {
		t.Fatal("functions missing")
	}
	if mainFn.End != helperFn.Entry {
		t.Errorf("main ends %#x, helper starts %#x", mainFn.End, helperFn.Entry)
	}
	if helperFn.End != isa.IndexToPC(len(p.Instrs)) {
		t.Errorf("helper end = %#x", helperFn.End)
	}
}

func TestBranchOutOfRangeReported(t *testing.T) {
	// A numeric offset beyond int32.
	src := "    .text\n    jal ra, 99999999999\n"
	if _, err := Assemble("e.s", src); err == nil {
		t.Error("out-of-range branch accepted")
	}
}

func TestTailPseudo(t *testing.T) {
	src := `    .text
    .global main
main:
    tail fin
    nop
fin:
    li a0, 2
    li a7, 0
    ecall
`
	_, stop, m := run(t, src, "")
	if stop.Kind != vm.StopExit || stop.ExitCode != 2 {
		t.Errorf("stop %v code %d", stop.Kind, stop.ExitCode)
	}
	_ = m
}
