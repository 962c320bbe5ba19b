package vm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"easytracker/internal/isa"
)

// prog builds a minimal program from instructions.
func prog(instrs ...isa.Instr) *isa.Program {
	return &isa.Program{
		SourceFile: "t.s",
		Instrs:     instrs,
		Entry:      isa.TextBase,
	}
}

func exitProg(instrs ...isa.Instr) *isa.Program {
	all := append(instrs,
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 0},
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysExit},
		isa.Instr{Op: isa.ECALL},
	)
	return prog(all...)
}

func mustMachine(t *testing.T, p *isa.Program, cfg Config) *Machine {
	t.Helper()
	m, err := New(p, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestArithmeticSemantics(t *testing.T) {
	// VM arithmetic must match Go int64 semantics.
	cases := []struct {
		op   isa.Op
		a, b int64
		want int64
	}{
		{isa.ADD, 2, 3, 5},
		{isa.ADD, math.MaxInt64, 1, math.MinInt64}, // wraparound
		{isa.SUB, 2, 5, -3},
		{isa.MUL, -4, 6, -24},
		{isa.DIV, 7, 2, 3},
		{isa.DIV, -7, 2, -3}, // C truncation
		{isa.REM, -7, 2, -1}, // C remainder
		{isa.AND, 0b1100, 0b1010, 0b1000},
		{isa.OR, 0b1100, 0b1010, 0b1110},
		{isa.XOR, 0b1100, 0b1010, 0b0110},
		{isa.SLL, 1, 10, 1024},
		{isa.SRA, -16, 2, -4},
		{isa.SLT, -1, 0, 1},
		{isa.SLT, 1, 0, 0},
	}
	for _, c := range cases {
		m := mustMachine(t, prog(
			isa.Instr{Op: c.op, Rd: isa.A2, Rs1: isa.A0, Rs2: isa.A1},
		), Config{})
		m.SetReg(isa.A0, uint64(c.a))
		m.SetReg(isa.A1, uint64(c.b))
		if s := m.StepOne(); s.Kind != StopStep {
			t.Fatalf("%v: stop %v (%v)", c.op, s.Kind, s.Err)
		}
		if got := int64(m.Reg(isa.A2)); got != c.want {
			t.Errorf("%v(%d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestQuickArithMatchesGo(t *testing.T) {
	type opfn struct {
		op isa.Op
		fn func(a, b int64) int64
	}
	ops := []opfn{
		{isa.ADD, func(a, b int64) int64 { return a + b }},
		{isa.SUB, func(a, b int64) int64 { return a - b }},
		{isa.MUL, func(a, b int64) int64 { return a * b }},
		{isa.XOR, func(a, b int64) int64 { return a ^ b }},
		{isa.AND, func(a, b int64) int64 { return a & b }},
		{isa.OR, func(a, b int64) int64 { return a | b }},
	}
	for _, o := range ops {
		o := o
		f := func(a, b int64) bool {
			m, err := New(prog(isa.Instr{Op: o.op, Rd: isa.A2, Rs1: isa.A0, Rs2: isa.A1}), Config{})
			if err != nil {
				return false
			}
			m.SetReg(isa.A0, uint64(a))
			m.SetReg(isa.A1, uint64(b))
			m.StepOne()
			return int64(m.Reg(isa.A2)) == o.fn(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", o.op, err)
		}
	}
}

func TestDivByZeroFaults(t *testing.T) {
	for _, op := range []isa.Op{isa.DIV, isa.REM} {
		m := mustMachine(t, prog(isa.Instr{Op: op, Rd: isa.A0, Rs1: isa.A0, Rs2: isa.Zero}), Config{})
		m.SetReg(isa.A0, 10)
		if s := m.StepOne(); s.Kind != StopFault {
			t.Errorf("%v by zero: stop = %v", op, s.Kind)
		}
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	m := mustMachine(t, prog(isa.Instr{Op: isa.ADDI, Rd: isa.Zero, Rs1: isa.Zero, Imm: 42}), Config{})
	m.StepOne()
	if m.Reg(isa.Zero) != 0 {
		t.Error("zero register was written")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	// Store a word to the stack and load it back in all widths.
	p := prog(
		isa.Instr{Op: isa.SD, Rs1: isa.SP, Rs2: isa.A0, Imm: -8},
		isa.Instr{Op: isa.LD, Rd: isa.A1, Rs1: isa.SP, Imm: -8},
		isa.Instr{Op: isa.LW, Rd: isa.A2, Rs1: isa.SP, Imm: -8},
		isa.Instr{Op: isa.LB, Rd: isa.A3, Rs1: isa.SP, Imm: -8},
		isa.Instr{Op: isa.LBU, Rd: isa.A4, Rs1: isa.SP, Imm: -8},
	)
	m := mustMachine(t, p, Config{})
	val := uint64(0xFFFF_FFFF_8000_00F0)
	m.SetReg(isa.A0, val)
	for i := 0; i < 5; i++ {
		if s := m.StepOne(); s.Kind != StopStep {
			t.Fatalf("step %d: %v %v", i, s.Kind, s.Err)
		}
	}
	if m.Reg(isa.A1) != val {
		t.Errorf("LD = %#x", m.Reg(isa.A1))
	}
	low32 := uint32(val)
	if int64(m.Reg(isa.A2)) != int64(int32(low32)) {
		t.Errorf("LW sign extension = %#x", m.Reg(isa.A2))
	}
	low8 := uint8(val)
	if int64(m.Reg(isa.A3)) != int64(int8(low8)) {
		t.Errorf("LB sign extension = %#x", m.Reg(isa.A3))
	}
	if m.Reg(isa.A4) != 0xF0 {
		t.Errorf("LBU = %#x", m.Reg(isa.A4))
	}
}

func TestQuickMemoryRoundTrip(t *testing.T) {
	m := mustMachine(t, prog(isa.Nop()), Config{})
	f := func(v uint64, offRaw uint16) bool {
		off := uint64(offRaw) &^ 7
		addr := isa.StackTop - 8 - off
		var b [8]byte
		putLeU64(b[:], v)
		if err := m.WriteMem(addr, b[:]); err != nil {
			return false
		}
		got, err := m.ReadU64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryFaults(t *testing.T) {
	m := mustMachine(t, prog(isa.Nop()), Config{})
	if _, err := m.ReadMem(0, 8); err == nil {
		t.Error("null read succeeded")
	}
	if _, err := m.ReadMem(isa.HeapBase, 8); err == nil {
		t.Error("unallocated heap read succeeded")
	}
	if err := m.WriteMem(isa.StackTop-4, make([]byte, 8)); err == nil {
		t.Error("straddling stack top write succeeded")
	}
	if _, err := m.ReadMem(^uint64(0)-3, 8); err == nil {
		t.Error("read of a range wrapping past 2^64 succeeded")
	}
	// Load faults during execution, at 0 and at -4, whose end wraps.
	for _, base := range []isa.Reg{isa.Zero, isa.A0} {
		p := prog(isa.Instr{Op: isa.LD, Rd: isa.A1, Rs1: base, Imm: 0})
		m2 := mustMachine(t, p, Config{})
		m2.SetReg(isa.A0, ^uint64(0)-3)
		if s := m2.StepOne(); s.Kind != StopFault {
			t.Errorf("load at %#x: stop = %v", m2.Reg(base), s.Kind)
		}
	}
}

func TestBranchesAndJumps(t *testing.T) {
	// if (a0 == a1) a2 = 1 else a2 = 2; then exit(a2)
	p := prog(
		isa.Instr{Op: isa.BEQ, Rs1: isa.A0, Rs2: isa.A1, Imm: 24}, // -> idx 3
		isa.Instr{Op: isa.ADDI, Rd: isa.A2, Rs1: isa.Zero, Imm: 2},
		isa.Instr{Op: isa.JAL, Rd: isa.Zero, Imm: 16}, // -> idx 4
		isa.Instr{Op: isa.ADDI, Rd: isa.A2, Rs1: isa.Zero, Imm: 1},
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.A2, Imm: 0},
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysExit},
		isa.Instr{Op: isa.ECALL},
	)
	m := mustMachine(t, p, Config{})
	m.SetReg(isa.A0, 7)
	m.SetReg(isa.A1, 7)
	s := m.Run(0)
	if s.Kind != StopExit || s.ExitCode != 1 {
		t.Errorf("equal: stop %v code %d", s.Kind, s.ExitCode)
	}
	m.Reset()
	m.SetReg(isa.A0, 7)
	m.SetReg(isa.A1, 8)
	s = m.Run(0)
	if s.Kind != StopExit || s.ExitCode != 2 {
		t.Errorf("unequal: stop %v code %d", s.Kind, s.ExitCode)
	}
}

func TestCallReturn(t *testing.T) {
	// main: call f (jal ra, +16); exit(a0). f: a0 = 5; ret
	p := prog(
		isa.Instr{Op: isa.JAL, Rd: isa.RA, Imm: 24},                          // idx0 -> idx3
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysExit}, // idx1
		isa.Instr{Op: isa.ECALL},                                             // idx2
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 5},           // idx3 (f)
		isa.Ret(), // idx4
	)
	m := mustMachine(t, p, Config{})
	s := m.Run(0)
	if s.Kind != StopExit || s.ExitCode != 5 {
		t.Errorf("stop %v code %d err %v", s.Kind, s.ExitCode, s.Err)
	}
}

func TestEcallOutput(t *testing.T) {
	var out strings.Builder
	p := exitProg(
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: -42},
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysPrintInt},
		isa.Instr{Op: isa.ECALL},
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: '\n'},
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysPrintChr},
		isa.Instr{Op: isa.ECALL},
	)
	m := mustMachine(t, p, Config{Stdout: &out})
	if s := m.Run(0); s.Kind != StopExit {
		t.Fatalf("stop %v %v", s.Kind, s.Err)
	}
	if out.String() != "-42\n" {
		t.Errorf("output %q", out.String())
	}
}

func TestEcallPrintStrAndFloat(t *testing.T) {
	var out strings.Builder
	p := exitProg(
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: int32(isa.DataBase)},
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysPrintStr},
		isa.Instr{Op: isa.ECALL},
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 3},
		isa.Instr{Op: isa.ITOF, Rd: isa.A0, Rs1: isa.A0},
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysPrintFlt},
		isa.Instr{Op: isa.ECALL},
	)
	p.Data = append([]byte("hi "), 0)
	m := mustMachine(t, p, Config{Stdout: &out})
	if s := m.Run(0); s.Kind != StopExit {
		t.Fatalf("stop %v %v", s.Kind, s.Err)
	}
	if out.String() != "hi 3" {
		t.Errorf("output %q", out.String())
	}
}

func TestEcallInput(t *testing.T) {
	p := exitProg(
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysReadInt},
		isa.Instr{Op: isa.ECALL},
		isa.Instr{Op: isa.ADDI, Rd: isa.S1, Rs1: isa.A0, Imm: 0},
	)
	m := mustMachine(t, p, Config{Stdin: strings.NewReader("123\n")})
	if s := m.Run(0); s.Kind != StopExit {
		t.Fatalf("stop %v %v", s.Kind, s.Err)
	}
	if m.Reg(isa.S1) != 123 {
		t.Errorf("read = %d", m.Reg(isa.S1))
	}
}

func TestSbrkGrowsHeap(t *testing.T) {
	p := prog(
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 64},
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysSbrk},
		isa.Instr{Op: isa.ECALL},
		isa.Instr{Op: isa.SD, Rs1: isa.A0, Rs2: isa.A0, Imm: 0}, // store to new block
		isa.Instr{Op: isa.EBREAK},
	)
	m := mustMachine(t, p, Config{})
	s := m.Run(0)
	if s.Kind != StopEBreak {
		t.Fatalf("stop %v %v", s.Kind, s.Err)
	}
	if m.Reg(isa.A0) != isa.HeapBase {
		t.Errorf("sbrk returned %#x", m.Reg(isa.A0))
	}
	if m.Brk() != isa.HeapBase+64 {
		t.Errorf("brk = %#x", m.Brk())
	}
	v, err := m.ReadU64(isa.HeapBase)
	if err != nil || v != isa.HeapBase {
		t.Errorf("heap word = %#x, %v", v, err)
	}
}

func TestSbrkLimit(t *testing.T) {
	p := prog(
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 1 << 20},
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysSbrk},
		isa.Instr{Op: isa.ECALL},
		isa.Instr{Op: isa.EBREAK},
	)
	m := mustMachine(t, p, Config{MaxHeap: 1024})
	if s := m.Run(0); s.Kind != StopEBreak {
		t.Fatalf("stop %v", s.Kind)
	}
	if int64(m.Reg(isa.A0)) != -1 {
		t.Errorf("over-limit sbrk returned %d", int64(m.Reg(isa.A0)))
	}
}

func TestSbrkShrinkThenGrow(t *testing.T) {
	sbrk := func(inc int32) []isa.Instr {
		return []isa.Instr{
			{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: inc},
			{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysSbrk},
			{Op: isa.ECALL},
		}
	}
	var code []isa.Instr
	code = append(code, sbrk(64)...)
	code = append(code,
		isa.Instr{Op: isa.ADDI, Rd: isa.S1, Rs1: isa.A0, Imm: 0},
		isa.Instr{Op: isa.ADDI, Rd: isa.S2, Rs1: isa.Zero, Imm: -1},
		isa.Instr{Op: isa.SD, Rs1: isa.S1, Rs2: isa.S2, Imm: 56},
	)
	code = append(code, sbrk(-64)...)
	code = append(code, sbrk(64)...)
	code = append(code, isa.Instr{Op: isa.LD, Rd: isa.S3, Rs1: isa.S1, Imm: 56})
	code = append(code, sbrk(2048)...) // past MaxHeap
	code = append(code, isa.Instr{Op: isa.EBREAK})
	m := mustMachine(t, prog(code...), Config{MaxHeap: 1024})

	// Step to each ecall's end: every heap-break move advances DataVersion.
	var results []uint64
	for {
		ins := m.Prog().Instrs[(m.PC()-isa.TextBase)/isa.WordSize]
		v := m.DataVersion()
		s := m.StepOne()
		if s.Kind == StopEBreak {
			break
		}
		if s.Kind != StopStep {
			t.Fatalf("stop %v (%v)", s.Kind, s.Err)
		}
		if ins.Op != isa.ECALL {
			continue
		}
		results = append(results, m.Reg(isa.A0))
		if moved := int64(m.Reg(isa.A0)) != -1; moved && m.DataVersion() <= v {
			t.Errorf("sbrk #%d moved the break without advancing DataVersion", len(results))
		}
	}
	want := []uint64{isa.HeapBase, isa.HeapBase + 64, isa.HeapBase, ^uint64(0)}
	if len(results) != len(want) {
		t.Fatalf("sbrk results %#x, want %#x", results, want)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("sbrk #%d returned %#x, want %#x", i+1, results[i], want[i])
		}
	}
	if m.Reg(isa.S3) != 0 {
		t.Errorf("a word regained after a shrink reads %#x, want 0", m.Reg(isa.S3))
	}
	if m.Brk() != isa.HeapBase+64 {
		t.Errorf("brk = %#x after the refused request", m.Brk())
	}
}

func TestStdinBufferedAtFirstRead(t *testing.T) {
	p := exitProg(
		isa.Instr{Op: isa.ADDI, Rd: isa.A7, Rs1: isa.Zero, Imm: isa.SysReadChr},
		isa.Instr{Op: isa.ECALL},
		isa.Instr{Op: isa.ADDI, Rd: isa.S1, Rs1: isa.A0, Imm: 0},
	)
	m := mustMachine(t, p, Config{})
	if m.stdin != nil {
		t.Error("New built the stdin reader before any read")
	}
	if s := m.Run(0); s.Kind != StopExit {
		t.Fatalf("stop %v (%v)", s.Kind, s.Err)
	}
	if int64(m.Reg(isa.S1)) != -1 {
		t.Errorf("read without Config.Stdin = %d, want -1 (EOF)", int64(m.Reg(isa.S1)))
	}
}

func TestBreakpoints(t *testing.T) {
	p := exitProg(
		isa.Instr{Op: isa.ADDI, Rd: isa.S1, Rs1: isa.S1, Imm: 1},
		isa.Instr{Op: isa.ADDI, Rd: isa.S1, Rs1: isa.S1, Imm: 1},
		isa.Instr{Op: isa.ADDI, Rd: isa.S1, Rs1: isa.S1, Imm: 1},
	)
	m := mustMachine(t, p, Config{})
	bp := isa.IndexToPC(1)
	m.AddBreakpoint(bp)
	s := m.Run(0)
	if s.Kind != StopBreak || m.PC() != bp {
		t.Fatalf("stop %v at %#x", s.Kind, m.PC())
	}
	if m.Reg(isa.S1) != 1 {
		t.Errorf("s1 = %d at breakpoint", m.Reg(isa.S1))
	}
	// Resuming from the breakpoint must not re-trigger it.
	s = m.Run(0)
	if s.Kind != StopExit {
		t.Fatalf("resume stop %v", s.Kind)
	}
	if m.Reg(isa.S1) != 3 {
		t.Errorf("s1 = %d at exit", m.Reg(isa.S1))
	}
	m.Reset()
	m.RemoveBreakpoint(bp)
	if s := m.Run(0); s.Kind != StopExit {
		t.Errorf("after removal stop %v", s.Kind)
	}
	if len(m.Breakpoints()) != 0 {
		t.Error("Breakpoints() not empty")
	}
}

func TestWatchpoints(t *testing.T) {
	addr := isa.StackTop - 16
	p := exitProg(
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 7},
		isa.Instr{Op: isa.SD, Rs1: isa.SP, Rs2: isa.A0, Imm: -16},
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 9},
		isa.Instr{Op: isa.SD, Rs1: isa.SP, Rs2: isa.A0, Imm: -16},
		isa.Instr{Op: isa.SD, Rs1: isa.SP, Rs2: isa.A0, Imm: -32}, // unwatched
	)
	m := mustMachine(t, p, Config{})
	id := m.AddWatch(addr, 8)
	s := m.Run(0)
	if s.Kind != StopWatch || s.Watch == nil {
		t.Fatalf("stop %v", s.Kind)
	}
	if leU64(s.Watch.Old) != 0 || leU64(s.Watch.New) != 7 {
		t.Errorf("first hit old=%v new=%v", s.Watch.Old, s.Watch.New)
	}
	if s.Watch.ID != id || s.Watch.PC != isa.IndexToPC(1) {
		t.Errorf("hit meta %+v", s.Watch)
	}
	s = m.Run(0)
	if s.Kind != StopWatch || leU64(s.Watch.New) != 9 {
		t.Fatalf("second hit %v", s)
	}
	s = m.Run(0)
	if s.Kind != StopExit {
		t.Errorf("final stop %v", s.Kind)
	}
	m.RemoveWatch(id)
	m.Reset()
	if s := m.Run(0); s.Kind != StopExit {
		t.Errorf("after unwatch stop %v", s.Kind)
	}
}

func TestWatchPartialOverlap(t *testing.T) {
	addr := isa.StackTop - 16
	p := exitProg(
		// SB into the middle of the watched word.
		isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 0xAB},
		isa.Instr{Op: isa.SB, Rs1: isa.SP, Rs2: isa.A0, Imm: -13},
	)
	m := mustMachine(t, p, Config{})
	m.AddWatch(addr, 8)
	s := m.Run(0)
	if s.Kind != StopWatch {
		t.Fatalf("stop %v", s.Kind)
	}
	if s.Watch.New[3] != 0xAB {
		t.Errorf("new bytes %v", s.Watch.New)
	}
}

func TestRunBudget(t *testing.T) {
	p := prog(isa.Instr{Op: isa.JAL, Rd: isa.Zero, Imm: 0}) // tight loop
	m := mustMachine(t, p, Config{})
	s := m.Run(1000)
	if s.Kind != StopBudget {
		t.Errorf("stop %v err %v", s.Kind, s.Err)
	}
}

func TestRunInterrupt(t *testing.T) {
	p := prog(isa.Instr{Op: isa.JAL, Rd: isa.Zero, Imm: 0}) // tight loop
	m := mustMachine(t, p, Config{})
	m.Interrupt()
	s := m.Run(1000)
	if s.Kind != StopInterrupt {
		t.Fatalf("stop %v err %v", s.Kind, s.Err)
	}
	// The flag is consumed: the next run goes back to executing.
	if s = m.Run(10); s.Kind != StopBudget {
		t.Errorf("second stop %v err %v", s.Kind, s.Err)
	}
}

func TestStepLimit(t *testing.T) {
	p := prog(isa.Instr{Op: isa.JAL, Rd: isa.Zero, Imm: 0}) // tight loop
	m := mustMachine(t, p, Config{})
	m.SetStepLimit(100)
	s := m.Run(0)
	if s.Kind != StopBudget {
		t.Fatalf("stop %v err %v", s.Kind, s.Err)
	}
	if m.Steps() != 100 {
		t.Errorf("steps = %d, want 100", m.Steps())
	}
	// The budget is one-shot: it disarmed itself, so the machine resumes.
	if s = m.Run(50); s.Kind != StopBudget || m.Steps() != 150 {
		t.Errorf("after trip: stop %v steps %d", s.Kind, m.Steps())
	}
}

func TestSegments(t *testing.T) {
	m := mustMachine(t, prog(isa.Nop(), isa.Nop()), Config{})
	segs := m.Segments()
	if len(segs) != 4 {
		t.Fatalf("segments = %v", segs)
	}
	if segs[0].Name != "text" || segs[0].Size != 16 {
		t.Errorf("text segment %v", segs[0])
	}
	if !m.InRange(isa.StackTop-8, 8) {
		t.Error("stack not in range")
	}
	if m.InRange(isa.StackTop, 1) {
		t.Error("beyond stack top in range")
	}
	// The stack segment is the whole 1 MiB, however little is committed.
	stack := Segment{Name: "stack", Start: isa.StackTop - DefaultStackSize, Size: DefaultStackSize}
	if segs[3] != stack {
		t.Errorf("stack segment %+v, want %+v", segs[3], stack)
	}
	if err := m.WriteMem(isa.StackTop-200<<10, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := m.Segments()[3]; got != stack {
		t.Errorf("after the stack grew: stack segment %+v, want %+v", got, stack)
	}
}

func TestResetRestoresState(t *testing.T) {
	p := exitProg(isa.Instr{Op: isa.ADDI, Rd: isa.S1, Rs1: isa.Zero, Imm: 9})
	m := mustMachine(t, p, Config{})
	m.Run(0)
	if ex, _ := m.Exited(); !ex {
		t.Fatal("not exited")
	}
	m.Reset()
	if ex, _ := m.Exited(); ex {
		t.Error("still exited after reset")
	}
	if m.Reg(isa.S1) != 0 || m.PC() != isa.TextBase || m.Reg(isa.SP) != isa.StackTop {
		t.Error("registers not reset")
	}
	if m.Steps() != 0 {
		t.Error("step count not reset")
	}
	// Words stored on the stack, near its top and far below, read 0.
	for _, addr := range []uint64{isa.StackTop - 8, isa.StackTop - 100<<10} {
		if err := m.WriteMem(addr, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
	}
	m.Reset()
	for _, addr := range []uint64{isa.StackTop - 8, isa.StackTop - 100<<10} {
		if v, err := m.ReadU64(addr); err != nil || v != 0 {
			t.Errorf("stack word at %#x after Reset = %#x, %v; want 0", addr, v, err)
		}
	}
}

func TestTextIsReadableMemory(t *testing.T) {
	// The raw memory viewer reads instruction bytes; the first byte of
	// the first instruction must decode back.
	p := prog(isa.Instr{Op: isa.ADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 1})
	m := mustMachine(t, p, Config{})
	b, err := m.ReadMem(isa.TextBase, 8)
	if err != nil {
		t.Fatal(err)
	}
	var arr [8]byte
	copy(arr[:], b)
	ins, err := isa.Decode(arr)
	if err != nil || ins.Op != isa.ADDI || ins.Imm != 1 {
		t.Errorf("decoded %v, %v", ins, err)
	}
}

func TestTextImageBuiltOnFirstAccess(t *testing.T) {
	p := exitProg(isa.Instr{Op: isa.ADDI, Rd: isa.S1, Rs1: isa.Zero, Imm: 9})
	m := mustMachine(t, p, Config{})
	segs := m.Segments()
	if stop := m.Run(0); stop.Kind != StopExit {
		t.Fatalf("stop %v (%v)", stop.Kind, stop.Err)
	}
	if m.text != nil {
		t.Fatal("a run that never read text built the text image")
	}
	want := p.EncodeText()
	if got := m.Segments(); got[0] != segs[0] || segs[0].Size != uint64(len(want)) {
		t.Errorf("text segment %+v, then %+v; want %d bytes", segs[0], got[0], len(want))
	}
	got, err := m.ReadMem(isa.TextBase, uint64(len(want)))
	if err != nil || string(got) != string(want) {
		t.Fatalf("text reads %x, %v; want %x", got, err, want)
	}
	last := isa.TextBase + uint64(len(want)) - 8
	if err := m.WriteMem(last, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if got, err := m.ReadU64(last); err != nil || got != 0x0807060504030201 {
		t.Errorf("text word after a write = %#x, %v", got, err)
	}
	if _, err := m.ReadMem(last+8, 1); err == nil {
		t.Error("a read past the text segment succeeded")
	}
	if got := m.Segments(); got[0] != segs[0] {
		t.Errorf("text segment after access %+v, want %+v", got[0], segs[0])
	}
}
