// Package vm implements the machine that executes compiled MiniC/assembly
// programs: a byte-addressable memory split into text, data, heap and stack
// segments, a 32-register file, an execution loop with instruction
// breakpoints and data watchpoints, and an ecall interface for I/O and heap
// growth. MiniGDB (internal/dbg) drives this machine the way GDB drives a
// Linux process.
package vm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"

	"easytracker/internal/isa"
)

// DefaultStackSize is the stack segment size in bytes.
const DefaultStackSize = 1 << 20

// stackPage is the stack a machine commits at New. An access below the
// committed part commits more (see commitStack), so a program pays only for
// the stack it touches.
const stackPage = 4 << 10

// DefaultMaxHeap bounds sbrk growth.
const DefaultMaxHeap = 8 << 20

// StopKind says why execution stopped.
type StopKind int

const (
	// StopStep means the requested number of instructions executed.
	StopStep StopKind = iota
	// StopBreak means an instruction breakpoint was reached (pc is at
	// the breakpoint, instruction not yet executed).
	StopBreak
	// StopWatch means a store modified a watched range (the store has
	// executed; pc is past it).
	StopWatch
	// StopExit means the program called the exit service.
	StopExit
	// StopFault means a machine fault (bad memory, bad pc, division by
	// zero).
	StopFault
	// StopEBreak means an ebreak instruction executed.
	StopEBreak
	// StopInterrupt means the cooperative interrupt flag was raised
	// (Interrupt); pc is at the next unexecuted instruction.
	StopInterrupt
	// StopBudget means the armed instruction budget (SetStepLimit) was
	// exhausted; the budget disarms itself when it trips.
	StopBudget
)

// String names the stop kind.
func (k StopKind) String() string {
	switch k {
	case StopStep:
		return "step"
	case StopBreak:
		return "breakpoint"
	case StopWatch:
		return "watchpoint"
	case StopExit:
		return "exited"
	case StopFault:
		return "fault"
	case StopEBreak:
		return "ebreak"
	case StopInterrupt:
		return "interrupt"
	case StopBudget:
		return "budget"
	}
	return fmt.Sprintf("StopKind(%d)", int(k))
}

// WatchHit reports one triggered watchpoint.
type WatchHit struct {
	ID   int
	Addr uint64
	Size uint64
	// Old and New are the watched range's bytes before and after the
	// store.
	Old, New []byte
	// PC is the address of the store instruction.
	PC uint64
}

// Stop is the result of Run/Step.
type Stop struct {
	Kind StopKind
	// Watch is set for StopWatch.
	Watch *WatchHit
	// Err is set for StopFault.
	Err error
	// ExitCode is set for StopExit.
	ExitCode int
}

type watch struct {
	id   int
	addr uint64
	size uint64
}

// Segment describes one mapped memory region.
type Segment struct {
	Name  string
	Start uint64
	Size  uint64
}

// Machine is one executing program instance.
type Machine struct {
	prog *isa.Program
	// text is the text segment's byte image, built at the first access to
	// a text address: execution reads prog.Instrs, so most machines never
	// need it.
	text []byte
	data []byte
	heap []byte
	// stack backs the committed top of the stack segment,
	// [StackTop-len(stack), StackTop). The rest of the segment, down to
	// stackBase, reads as zeros until an access commits it.
	stack []byte

	regs [isa.NumRegs]uint64
	pc   uint64
	brk  uint64

	stackBase uint64
	maxHeap   uint64

	stdout io.Writer
	stderr io.Writer
	// in is Config.Stdin; stdin buffers it from the first read on (see
	// input), since few programs read stdin at all.
	in    io.Reader
	stdin *bufio.Reader

	breakpoints map[uint64]bool
	watches     []watch
	nextWatchID int

	// dataVersion counts every memory-visible mutation (stores, debugger
	// writes, brk moves, resets). Clients cache inspection snapshots and
	// revalidate them with one cheap version compare instead of a full
	// state transfer; it is monotonic across Reset so stale caches can
	// never validate against a fresh run.
	dataVersion uint64

	exited   bool
	exitCode int
	steps    uint64

	// intr is the cooperative interrupt flag. It is the only machine
	// field touched from outside the executing goroutine: the MI server's
	// reader goroutine (-exec-interrupt) and signal handlers raise it, the
	// run loops consume it.
	intr atomic.Bool
	// stepLimit is the armed total-instruction budget (0 = off); it
	// disarms itself when it trips so the paused program stays resumable.
	stepLimit uint64
}

// Config customizes machine construction.
type Config struct {
	Stdout    io.Writer
	Stderr    io.Writer
	Stdin     io.Reader
	StackSize uint64
	MaxHeap   uint64
}

// New builds a machine for the program and resets it to the entry state.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	}
	if cfg.Stderr == nil {
		cfg.Stderr = io.Discard
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = DefaultStackSize
	}
	if cfg.MaxHeap == 0 {
		cfg.MaxHeap = DefaultMaxHeap
	}
	m := &Machine{
		prog:        prog,
		stdout:      cfg.Stdout,
		stderr:      cfg.Stderr,
		in:          cfg.Stdin,
		stackBase:   isa.StackTop - cfg.StackSize,
		maxHeap:     cfg.MaxHeap,
		breakpoints: map[uint64]bool{},
	}
	m.data = make([]byte, len(prog.Data))
	copy(m.data, prog.Data)
	m.stack = make([]byte, min(stackPage, cfg.StackSize))
	m.Reset()
	return m, nil
}

// Reset restores the entry state (registers, pc, heap, stack; the data
// segment is reloaded from the program image). The stack stays committed
// as far as the last run reached.
func (m *Machine) Reset() {
	m.regs = [isa.NumRegs]uint64{}
	m.regs[isa.SP] = isa.StackTop
	m.regs[isa.FP] = isa.StackTop
	m.pc = m.prog.Entry
	m.brk = isa.HeapBase
	m.heap = m.heap[:0]
	copy(m.data, m.prog.Data)
	for i := len(m.prog.Data); i < len(m.data); i++ {
		m.data[i] = 0
	}
	clear(m.stack)
	m.exited = false
	m.exitCode = 0
	m.steps = 0
	m.dataVersion++
}

// DataVersion returns the machine's store counter: it advances on every
// memory store, debugger memory write, heap-break move and reset, so an
// unchanged version proves memory (and therefore any memory-derived state
// snapshot) is unchanged.
func (m *Machine) DataVersion() uint64 { return m.dataVersion }

// Prog returns the loaded program image.
func (m *Machine) Prog() *isa.Program { return m.prog }

// PC returns the program counter.
func (m *Machine) PC() uint64 { return m.pc }

// SetPC sets the program counter.
func (m *Machine) SetPC(pc uint64) { m.pc = pc }

// Reg reads a register.
func (m *Machine) Reg(r isa.Reg) uint64 { return m.regs[r] }

// SetReg writes a register (writes to zero are ignored).
func (m *Machine) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		m.regs[r] = v
	}
}

// Registers returns a copy of the register file.
func (m *Machine) Registers() [isa.NumRegs]uint64 { return m.regs }

// Exited reports whether the program terminated, with its code.
func (m *Machine) Exited() (bool, int) { return m.exited, m.exitCode }

// Steps returns the executed instruction count.
func (m *Machine) Steps() uint64 { return m.steps }

// Brk returns the current program break (end of heap).
func (m *Machine) Brk() uint64 { return m.brk }

// Segments describes the mapped memory regions.
func (m *Machine) Segments() []Segment {
	return []Segment{
		{Name: "text", Start: isa.TextBase, Size: m.textSize()},
		{Name: "data", Start: isa.DataBase, Size: uint64(len(m.data))},
		{Name: "heap", Start: isa.HeapBase, Size: m.brk - isa.HeapBase},
		{Name: "stack", Start: m.stackBase, Size: isa.StackTop - m.stackBase},
	}
}

// InRange reports whether [addr, addr+size) is mapped.
func (m *Machine) InRange(addr, size uint64) bool {
	_, _, err := m.locate(addr, size)
	return err == nil
}

// locate maps an address range to its backing slice. A stack address below
// the committed part commits it, which moves the stack's backing, so every
// caller uses the returned slice before it calls locate again.
func (m *Machine) locate(addr, size uint64) ([]byte, uint64, error) {
	end := addr + size
	switch {
	case end < addr: // a range that wraps past 2^64 is mapped nowhere
	case addr >= isa.TextBase && end <= isa.TextBase+m.textSize():
		if m.text == nil {
			m.text = m.prog.EncodeText()
		}
		return m.text, addr - isa.TextBase, nil
	case addr >= isa.DataBase && end <= isa.DataBase+uint64(len(m.data)):
		return m.data, addr - isa.DataBase, nil
	case addr >= isa.HeapBase && end <= m.brk:
		return m.heap, addr - isa.HeapBase, nil
	case addr >= m.stackBase && end <= isa.StackTop:
		if need := isa.StackTop - addr; need > uint64(len(m.stack)) {
			m.commitStack(need)
		}
		return m.stack, addr - (isa.StackTop - uint64(len(m.stack))), nil
	}
	return nil, 0, fmt.Errorf("vm: segmentation fault at %#x (size %d)", addr, size)
}

// textSize is the text segment's size, whether or not its image is built.
func (m *Machine) textSize() uint64 { return uint64(len(m.prog.Instrs)) * isa.WordSize }

// commitStack grows the committed stack downward to at least need bytes
// below StackTop, doubling, capped at the segment. The committed bytes keep
// their addresses: they move to the top of the new backing.
func (m *Machine) commitStack(need uint64) {
	n := uint64(len(m.stack))
	for n < need {
		n *= 2
	}
	n = min(n, isa.StackTop-m.stackBase)
	grown := make([]byte, n)
	copy(grown[n-uint64(len(m.stack)):], m.stack)
	m.stack = grown
}

// ReadMem copies size bytes at addr, for callers that keep them; a read
// that only decodes them goes through locate, which copies nothing.
func (m *Machine) ReadMem(addr, size uint64) ([]byte, error) {
	buf, off, err := m.locate(addr, size)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, buf[off:off+size])
	return out, nil
}

// WriteMem stores bytes at addr (no watchpoint side effects; debugger use).
func (m *Machine) WriteMem(addr uint64, data []byte) error {
	buf, off, err := m.locate(addr, uint64(len(data)))
	if err != nil {
		return err
	}
	copy(buf[off:], data)
	m.dataVersion++
	return nil
}

// ReadU64 loads a 64-bit little-endian word.
func (m *Machine) ReadU64(addr uint64) (uint64, error) {
	buf, off, err := m.locate(addr, 8)
	if err != nil {
		return 0, err
	}
	return leU64(buf[off:]), nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (m *Machine) ReadCString(addr uint64, max int) (string, error) {
	var sb strings.Builder
	for i := 0; i < max; i++ {
		buf, off, err := m.locate(addr+uint64(i), 1)
		if err != nil {
			return "", err
		}
		if buf[off] == 0 {
			return sb.String(), nil
		}
		sb.WriteByte(buf[off])
	}
	return sb.String(), nil
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// AddBreakpoint arms an instruction breakpoint at pc.
func (m *Machine) AddBreakpoint(pc uint64) { m.breakpoints[pc] = true }

// RemoveBreakpoint disarms a breakpoint.
func (m *Machine) RemoveBreakpoint(pc uint64) { delete(m.breakpoints, pc) }

// Breakpoints lists armed breakpoint addresses.
func (m *Machine) Breakpoints() []uint64 {
	out := make([]uint64, 0, len(m.breakpoints))
	for pc := range m.breakpoints {
		out = append(out, pc)
	}
	return out
}

// AddWatch arms a data watchpoint over [addr, addr+size) and returns its id.
func (m *Machine) AddWatch(addr, size uint64) int {
	m.nextWatchID++
	m.watches = append(m.watches, watch{id: m.nextWatchID, addr: addr, size: size})
	return m.nextWatchID
}

// RemoveWatch disarms a watchpoint by id.
func (m *Machine) RemoveWatch(id int) {
	for i, w := range m.watches {
		if w.id == id {
			m.watches = append(m.watches[:i], m.watches[i+1:]...)
			return
		}
	}
}

func (m *Machine) fault(format string, args ...any) Stop {
	return Stop{Kind: StopFault, Err: fmt.Errorf(format, args...)}
}

// StepOne executes exactly one instruction and reports what happened.
// Breakpoints are NOT checked (callers that want them use Run).
func (m *Machine) StepOne() Stop {
	if m.exited {
		return Stop{Kind: StopExit, ExitCode: m.exitCode}
	}
	idx, ok := isa.PCToIndex(m.pc)
	if !ok || idx >= len(m.prog.Instrs) {
		return m.fault("vm: pc %#x outside text segment", m.pc)
	}
	ins := m.prog.Instrs[idx]
	m.steps++
	nextPC := m.pc + isa.WordSize

	reg := func(r isa.Reg) uint64 { return m.regs[r] }
	sreg := func(r isa.Reg) int64 { return int64(m.regs[r]) }
	freg := func(r isa.Reg) float64 { return math.Float64frombits(m.regs[r]) }

	switch ins.Op {
	case isa.NOP:
	case isa.ADD:
		m.SetReg(ins.Rd, uint64(sreg(ins.Rs1)+sreg(ins.Rs2)))
	case isa.SUB:
		m.SetReg(ins.Rd, uint64(sreg(ins.Rs1)-sreg(ins.Rs2)))
	case isa.MUL:
		m.SetReg(ins.Rd, uint64(sreg(ins.Rs1)*sreg(ins.Rs2)))
	case isa.DIV:
		if sreg(ins.Rs2) == 0 {
			return m.fault("vm: integer division by zero at pc %#x", m.pc)
		}
		m.SetReg(ins.Rd, uint64(sreg(ins.Rs1)/sreg(ins.Rs2)))
	case isa.REM:
		if sreg(ins.Rs2) == 0 {
			return m.fault("vm: integer remainder by zero at pc %#x", m.pc)
		}
		m.SetReg(ins.Rd, uint64(sreg(ins.Rs1)%sreg(ins.Rs2)))
	case isa.AND:
		m.SetReg(ins.Rd, reg(ins.Rs1)&reg(ins.Rs2))
	case isa.OR:
		m.SetReg(ins.Rd, reg(ins.Rs1)|reg(ins.Rs2))
	case isa.XOR:
		m.SetReg(ins.Rd, reg(ins.Rs1)^reg(ins.Rs2))
	case isa.SLL:
		m.SetReg(ins.Rd, reg(ins.Rs1)<<(reg(ins.Rs2)&63))
	case isa.SRL:
		m.SetReg(ins.Rd, reg(ins.Rs1)>>(reg(ins.Rs2)&63))
	case isa.SRA:
		m.SetReg(ins.Rd, uint64(sreg(ins.Rs1)>>(reg(ins.Rs2)&63)))
	case isa.SLT:
		m.SetReg(ins.Rd, b2u(sreg(ins.Rs1) < sreg(ins.Rs2)))
	case isa.SLTU:
		m.SetReg(ins.Rd, b2u(reg(ins.Rs1) < reg(ins.Rs2)))
	case isa.ADDI:
		m.SetReg(ins.Rd, uint64(sreg(ins.Rs1)+int64(ins.Imm)))
	case isa.ANDI:
		m.SetReg(ins.Rd, reg(ins.Rs1)&uint64(int64(ins.Imm)))
	case isa.ORI:
		m.SetReg(ins.Rd, reg(ins.Rs1)|uint64(int64(ins.Imm)))
	case isa.XORI:
		m.SetReg(ins.Rd, reg(ins.Rs1)^uint64(int64(ins.Imm)))
	case isa.SLLI:
		m.SetReg(ins.Rd, reg(ins.Rs1)<<(uint64(ins.Imm)&63))
	case isa.SRLI:
		m.SetReg(ins.Rd, reg(ins.Rs1)>>(uint64(ins.Imm)&63))
	case isa.SRAI:
		m.SetReg(ins.Rd, uint64(sreg(ins.Rs1)>>(uint64(ins.Imm)&63)))
	case isa.SLTI:
		m.SetReg(ins.Rd, b2u(sreg(ins.Rs1) < int64(ins.Imm)))
	case isa.LUI:
		m.SetReg(ins.Rd, uint64(int64(ins.Imm))<<12)
	case isa.LD, isa.LW, isa.LB, isa.LBU:
		addr := uint64(sreg(ins.Rs1) + int64(ins.Imm))
		size := uint64(8)
		switch ins.Op {
		case isa.LW:
			size = 4
		case isa.LB, isa.LBU:
			size = 1
		}
		buf, off, err := m.locate(addr, size)
		if err != nil {
			return m.fault("vm: load fault at pc %#x: %v", m.pc, err)
		}
		b := buf[off:]
		var v uint64
		switch ins.Op {
		case isa.LD:
			v = leU64(b)
		case isa.LW:
			u := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			v = uint64(int64(int32(u)))
		case isa.LB:
			v = uint64(int64(int8(b[0])))
		case isa.LBU:
			v = uint64(b[0])
		}
		m.SetReg(ins.Rd, v)
	case isa.SD, isa.SW, isa.SB:
		addr := uint64(sreg(ins.Rs1) + int64(ins.Imm))
		size := uint64(ins.StoreSize())
		m.dataVersion++
		hit := m.watchStore(addr, size)
		var old []byte
		if hit != nil {
			old, _ = m.ReadMem(hit.addr, hit.size)
		}
		buf, off, err := m.locate(addr, size)
		if err != nil {
			return m.fault("vm: store fault at pc %#x: %v", m.pc, err)
		}
		v := reg(ins.Rs2)
		switch ins.Op {
		case isa.SD:
			putLeU64(buf[off:], v)
		case isa.SW:
			buf[off] = byte(v)
			buf[off+1] = byte(v >> 8)
			buf[off+2] = byte(v >> 16)
			buf[off+3] = byte(v >> 24)
		case isa.SB:
			buf[off] = byte(v)
		}
		if hit != nil {
			newB, _ := m.ReadMem(hit.addr, hit.size)
			storePC := m.pc
			m.pc = nextPC
			return Stop{Kind: StopWatch, Watch: &WatchHit{
				ID: hit.id, Addr: hit.addr, Size: hit.size,
				Old: old, New: newB, PC: storePC,
			}}
		}
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		take := false
		switch ins.Op {
		case isa.BEQ:
			take = reg(ins.Rs1) == reg(ins.Rs2)
		case isa.BNE:
			take = reg(ins.Rs1) != reg(ins.Rs2)
		case isa.BLT:
			take = sreg(ins.Rs1) < sreg(ins.Rs2)
		case isa.BGE:
			take = sreg(ins.Rs1) >= sreg(ins.Rs2)
		case isa.BLTU:
			take = reg(ins.Rs1) < reg(ins.Rs2)
		case isa.BGEU:
			take = reg(ins.Rs1) >= reg(ins.Rs2)
		}
		if take {
			nextPC = uint64(int64(m.pc) + int64(ins.Imm))
		}
	case isa.JAL:
		m.SetReg(ins.Rd, nextPC)
		nextPC = uint64(int64(m.pc) + int64(ins.Imm))
	case isa.JALR:
		target := uint64(sreg(ins.Rs1) + int64(ins.Imm))
		m.SetReg(ins.Rd, nextPC)
		nextPC = target
	case isa.ECALL:
		stop, ok := m.ecall()
		if !ok {
			m.pc = nextPC
			return stop
		}
	case isa.EBREAK:
		m.pc = nextPC
		return Stop{Kind: StopEBreak}
	case isa.FADD:
		m.SetReg(ins.Rd, math.Float64bits(freg(ins.Rs1)+freg(ins.Rs2)))
	case isa.FSUB:
		m.SetReg(ins.Rd, math.Float64bits(freg(ins.Rs1)-freg(ins.Rs2)))
	case isa.FMUL:
		m.SetReg(ins.Rd, math.Float64bits(freg(ins.Rs1)*freg(ins.Rs2)))
	case isa.FDIV:
		m.SetReg(ins.Rd, math.Float64bits(freg(ins.Rs1)/freg(ins.Rs2)))
	case isa.FEQ:
		m.SetReg(ins.Rd, b2u(freg(ins.Rs1) == freg(ins.Rs2)))
	case isa.FLT:
		m.SetReg(ins.Rd, b2u(freg(ins.Rs1) < freg(ins.Rs2)))
	case isa.FLE:
		m.SetReg(ins.Rd, b2u(freg(ins.Rs1) <= freg(ins.Rs2)))
	case isa.FNEG:
		m.SetReg(ins.Rd, math.Float64bits(-freg(ins.Rs1)))
	case isa.ITOF:
		m.SetReg(ins.Rd, math.Float64bits(float64(sreg(ins.Rs1))))
	case isa.FTOI:
		m.SetReg(ins.Rd, uint64(int64(freg(ins.Rs1))))
	default:
		return m.fault("vm: illegal instruction %v at pc %#x", ins, m.pc)
	}
	m.pc = nextPC
	return Stop{Kind: StopStep}
}

// watchStore returns the first armed watchpoint whose range overlaps the
// store, the one that reports the stop, or nil.
func (m *Machine) watchStore(addr, size uint64) *watch {
	for i := range m.watches {
		if w := &m.watches[i]; addr < w.addr+w.size && w.addr < addr+size {
			return w
		}
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ecall dispatches a runtime service; returns (stop, false) for terminating
// or fault outcomes.
func (m *Machine) ecall() (Stop, bool) {
	svc := m.regs[isa.A7]
	a0 := m.regs[isa.A0]
	switch svc {
	case isa.SysExit:
		m.exited = true
		m.exitCode = int(int64(a0))
		return Stop{Kind: StopExit, ExitCode: m.exitCode}, false
	case isa.SysPrintInt:
		fmt.Fprintf(m.stdout, "%d", int64(a0))
	case isa.SysPrintStr:
		s, err := m.ReadCString(a0, 1<<16)
		if err != nil {
			return m.fault("vm: print_str fault: %v", err), false
		}
		fmt.Fprint(m.stdout, s)
	case isa.SysPrintChr:
		fmt.Fprintf(m.stdout, "%c", rune(a0))
	case isa.SysPrintFlt:
		fmt.Fprintf(m.stdout, "%g", math.Float64frombits(a0))
	case isa.SysSbrk:
		inc := int64(a0)
		old := m.brk
		nb := int64(m.brk) + inc
		if nb < int64(isa.HeapBase) || uint64(nb) > isa.HeapBase+m.maxHeap {
			m.SetReg(isa.A0, ^uint64(0)) // -1
			break
		}
		m.brk = uint64(nb)
		m.dataVersion++
		// Growth appends zeros, so bytes regained after a shrink read 0.
		if need := int(m.brk - isa.HeapBase); need > len(m.heap) {
			m.heap = append(m.heap, make([]byte, need-len(m.heap))...)
		} else {
			m.heap = m.heap[:need]
		}
		m.SetReg(isa.A0, old)
	case isa.SysReadInt:
		var v int64
		if _, err := fmt.Fscan(m.input(), &v); err != nil {
			v = 0
		}
		m.SetReg(isa.A0, uint64(v))
	case isa.SysReadChr:
		b, err := m.input().ReadByte()
		if err != nil {
			m.SetReg(isa.A0, ^uint64(0))
		} else {
			m.SetReg(isa.A0, uint64(b))
		}
	default:
		return m.fault("vm: unknown ecall service %d at pc %#x", svc, m.pc), false
	}
	return Stop{Kind: StopStep}, true
}

// input returns the buffered stdin, built at the first read.
func (m *Machine) input() *bufio.Reader {
	if m.stdin == nil {
		in := m.in
		if in == nil {
			in = strings.NewReader("")
		}
		m.stdin = bufio.NewReader(in)
	}
	return m.stdin
}

// Interrupt raises the cooperative interrupt flag: the executing run loop
// stops with StopInterrupt before its next instruction. The flag is sticky
// while the machine is idle, so an interrupt delivered between commands
// stops the next run immediately. Safe to call from any goroutine.
func (m *Machine) Interrupt() { m.intr.Store(true) }

// TakeInterrupt consumes a pending interrupt, reporting whether one was
// raised. The idle path is a single atomic load — it runs once per
// instruction in the dispatch loop, so the consume CAS happens only when
// the flag is actually up.
func (m *Machine) TakeInterrupt() bool {
	return m.intr.Load() && m.intr.CompareAndSwap(true, false)
}

// SetStepLimit arms (or with 0 disarms) the total-instruction budget: once
// Steps() reaches n, run loops stop with StopBudget and the budget disarms
// itself.
func (m *Machine) SetStepLimit(n uint64) { m.stepLimit = n }

// TripStepLimit reports whether the armed instruction budget is exhausted,
// disarming it when so.
func (m *Machine) TripStepLimit() bool {
	if m.stepLimit > 0 && m.steps >= m.stepLimit {
		m.stepLimit = 0
		return true
	}
	return false
}

// Run executes until a breakpoint, watchpoint, exit, fault, interrupt, or
// the step budget is exhausted (budget 0 means 50 million instructions).
// The breakpoint at the starting pc is skipped, so Run can resume from one.
func (m *Machine) Run(budget uint64) Stop {
	if budget == 0 {
		budget = 50_000_000
	}
	first := true
	for i := uint64(0); i < budget; i++ {
		if m.TakeInterrupt() {
			return Stop{Kind: StopInterrupt}
		}
		if m.TripStepLimit() {
			return Stop{Kind: StopBudget}
		}
		if !first && m.breakpoints[m.pc] {
			return Stop{Kind: StopBreak}
		}
		first = false
		stop := m.StepOne()
		if stop.Kind != StopStep {
			return stop
		}
	}
	return Stop{Kind: StopBudget}
}
