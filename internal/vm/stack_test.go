package vm

import (
	"bytes"
	"testing"

	"easytracker/internal/isa"
	"easytracker/internal/minic"
)

// committed reports how many bytes of the stack segment are backed.
func (m *Machine) committed() uint64 { return uint64(len(m.stack)) }

func TestNativeFibCommitsLittleStack(t *testing.T) {
	// BenchmarkNativeMiniC's program: a fresh machine commits one page of
	// its 1 MiB stack, and fib's recursion stays within two.
	prog, err := minic.Compile("fib.c", `int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int r = fib(8);
    printf("%d\n", r);
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m := mustMachine(t, prog, Config{Stdout: &out})
	if got := m.committed(); got != stackPage {
		t.Errorf("New committed %d bytes of stack, want %d", got, stackPage)
	}
	if s := m.Run(0); s.Kind != StopExit {
		t.Fatalf("stop %v (%v)", s.Kind, s.Err)
	}
	if out.String() != "21\n" {
		t.Errorf("output %q", out.String())
	}
	if got := m.committed(); got > 8<<10 {
		t.Errorf("fib(8) committed %d bytes of stack, want at most 8 KiB", got)
	}
}

func TestStackBelowCommittedPart(t *testing.T) {
	m := mustMachine(t, prog(isa.Nop()), Config{})
	top := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.WriteMem(isa.StackTop-8, top); err != nil {
		t.Fatal(err)
	}
	deep := isa.StackTop - 300<<10
	if err := m.WriteMem(deep, []byte{9, 8, 7}); err != nil {
		t.Fatalf("write below the committed part: %v", err)
	}
	if got := m.committed(); got != 512<<10 {
		t.Errorf("committed %d bytes after a write 300 KiB down, want 512 KiB (doubling)", got)
	}
	for _, c := range []struct {
		addr uint64
		want []byte
	}{
		{deep, []byte{9, 8, 7}},
		{isa.StackTop - 8, top}, // moved with the growth, kept its address
		{deep + 3, make([]byte, 16)},
		{deep - 16, make([]byte, 16)},
		{isa.StackTop - 64<<10, make([]byte, 8)},
		{isa.StackTop - DefaultStackSize, make([]byte, 8)}, // the segment's last word
	} {
		got, err := m.ReadMem(c.addr, uint64(len(c.want)))
		if err != nil || !bytes.Equal(got, c.want) {
			t.Errorf("ReadMem(%#x) = %v, %v; want %v", c.addr, got, err, c.want)
		}
	}
	if got := m.committed(); got != DefaultStackSize {
		t.Errorf("committed %d bytes after reading the segment's last word, want the whole segment", got)
	}
	if _, err := m.ReadMem(isa.StackTop-DefaultStackSize-8, 8); err == nil {
		t.Error("read below the stack segment succeeded")
	}
}

func TestStoreBelowCommittedPart(t *testing.T) {
	// A program's own store and load reach below the committed part.
	m := mustMachine(t, prog(
		isa.Instr{Op: isa.SD, Rs1: isa.A0, Rs2: isa.A1, Imm: 0},
		isa.Instr{Op: isa.LD, Rd: isa.S1, Rs1: isa.A0, Imm: 0},
		isa.Instr{Op: isa.LD, Rd: isa.S2, Rs1: isa.A0, Imm: 8},
		isa.Instr{Op: isa.EBREAK},
	), Config{})
	addr := isa.StackTop - 40000
	m.SetReg(isa.A0, addr)
	m.SetReg(isa.A1, 0x1122334455667788)
	if s := m.Run(0); s.Kind != StopEBreak {
		t.Fatalf("stop %v (%v)", s.Kind, s.Err)
	}
	if m.Reg(isa.S1) != 0x1122334455667788 || m.Reg(isa.S2) != 0 {
		t.Errorf("loads = %#x, %#x", m.Reg(isa.S1), m.Reg(isa.S2))
	}
	if v, err := m.ReadU64(addr); err != nil || v != 0x1122334455667788 {
		t.Errorf("ReadU64 = %#x, %v", v, err)
	}
}
