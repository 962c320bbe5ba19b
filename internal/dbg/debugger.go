// Package dbg implements MiniGDB, the source-level debugger for compiled
// MiniC/assembly programs — the GDB stand-in of the EasyTracker
// reproduction. It adds, on top of the raw machine (internal/vm),
// source-line stepping over the debug line table, line/function breakpoints
// with the paper's maxdepth extension, named watchpoints, frame unwinding
// over the fp chain, and typed memory inspection producing the
// language-agnostic core state model.
//
// Everything in this package corresponds to the right-hand box of the
// paper's Fig. 4: GDB plus the custom Python extensions the authors load
// into it. The MI protocol wrapper lives in internal/mi.
package dbg

import (
	"errors"
	"fmt"
	"sort"

	"easytracker/internal/isa"
	"easytracker/internal/vm"
)

// StopReason says why the debugger returned control.
type StopReason int

const (
	// StopNone: not started.
	StopNone StopReason = iota
	// StopEntry: paused at main's first line after Start.
	StopEntry
	// StopStep: a step/next command completed.
	StopStep
	// StopBreakpoint: a breakpoint was hit.
	StopBreakpoint
	// StopWatch: a watchpoint fired.
	StopWatch
	// StopExited: the program terminated.
	StopExited
	// StopFault: the machine faulted (segfault, division by zero).
	StopFault
	// StopInterrupted: the supervision layer converted the running command
	// into a pause — a cooperative interrupt (-exec-interrupt) or a
	// tripped instruction budget. The inferior is alive and resumable.
	StopInterrupted
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopEntry:
		return "entry"
	case StopStep:
		return "end-stepping-range"
	case StopBreakpoint:
		return "breakpoint-hit"
	case StopWatch:
		return "watchpoint-trigger"
	case StopExited:
		return "exited"
	case StopFault:
		return "signal-received"
	case StopInterrupted:
		return "interrupted"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// Stop describes a pause of the inferior.
type Stop struct {
	Reason StopReason
	// Breakpoint is the hit breakpoint's id for StopBreakpoint.
	Breakpoint int
	// Watch describes the watchpoint trigger for StopWatch.
	Watch *WatchStop
	// ExitCode is valid for StopExited.
	ExitCode int
	// Fault holds the fault message for StopFault.
	Fault string
	// Detail names what stopped the run for StopInterrupted ("interrupt"
	// or "step-budget").
	Detail string
	// Line and Function locate the pause.
	Line     int
	Function string
}

// WatchStop is a fired watchpoint.
type WatchStop struct {
	ID   int
	Name string
	// Old and New are the raw watched bytes before/after.
	Old, New []byte
	Addr     uint64
	Size     uint64
}

// Breakpoint is an armed breakpoint.
type Breakpoint struct {
	ID int
	// PCs are the machine addresses armed for this breakpoint (a line
	// may span several ranges; a function-exit breakpoint arms every
	// RET).
	PCs []uint64
	// Line and Function describe the source target.
	Line     int
	Function string
	// MaxDepth, when positive, suppresses hits at frame depth >= it
	// (the paper's custom maxdepth breakpoint).
	MaxDepth int
	// Internal breakpoints never surface to the client; they are used
	// by trackers (heap interposition bookkeeping).
	Internal bool
	// Temporary breakpoints are removed after the first hit.
	Temporary bool
	// Cond, when non-nil, gates reporting: a hit whose condition
	// evaluates false resumes silently, through the same filter as
	// maxdepth. The closure is installed by the session layer (which owns
	// expression compilation and evaluation); the debugger stays
	// expression-agnostic.
	Cond func() bool
	// IgnoreLeft suppresses that many condition-passing hits before the
	// breakpoint reports.
	IgnoreLeft int
}

// Watchpoint is an armed data watchpoint.
type Watchpoint struct {
	ID   int
	Name string
	Addr uint64
	Size uint64
	// Internal watchpoints are consumed by trackers, not reported.
	Internal bool
	// Cond and IgnoreLeft gate reporting like their Breakpoint
	// counterparts: a false condition or an unconsumed ignore credit
	// resumes silently.
	Cond       func() bool
	IgnoreLeft int
	vmID       int
}

// ErrNotStarted is returned by control calls before Start.
var ErrNotStarted = errors.New("dbg: inferior not started")

// ErrExited is returned by control calls after termination.
var ErrExited = errors.New("dbg: inferior has exited")

// Debugger drives one machine instance.
type Debugger struct {
	m    *vm.Machine
	prog *isa.Program

	started  bool
	exited   bool
	halted   bool // exited through the exit service: no frame is alive
	exitCode int
	lastLine int

	nextBPID int
	bps      map[int]*Breakpoint
	watches  map[int]*Watchpoint

	// heapMap is the tracker-maintained map of live heap blocks
	// (address -> size), fed through the SetHeapMap extension; used to
	// expand heap pointers into arrays during inspection.
	heapMap map[uint64]uint64

	// typeNames holds the C names of the composite types inspections have
	// read (typeName), each rendered once.
	typeNames map[*isa.TypeInfo]string

	// StepBudget bounds machine instructions per control command.
	StepBudget uint64
}

// New builds a debugger over a fresh machine for prog.
func New(prog *isa.Program, cfg vm.Config) (*Debugger, error) {
	m, err := vm.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	return &Debugger{
		m: m, prog: prog,
		bps:        map[int]*Breakpoint{},
		watches:    map[int]*Watchpoint{},
		heapMap:    map[uint64]uint64{},
		StepBudget: 200_000_000,
	}, nil
}

// Machine exposes the underlying machine (registers, raw memory).
func (d *Debugger) Machine() *vm.Machine { return d.m }

// DataVersion returns the machine's store counter; see vm.Machine.DataVersion.
func (d *Debugger) DataVersion() uint64 { return d.m.DataVersion() }

// WatchVersions maps each armed watchpoint's debugger ID to its store
// counter (stores so far that overlapped its range).
func (d *Debugger) WatchVersions() map[int]uint64 {
	out := make(map[int]uint64, len(d.watches))
	for id, w := range d.watches {
		out[id] = d.m.WatchVersion(w.vmID)
	}
	return out
}

// Prog returns the program image.
func (d *Debugger) Prog() *isa.Program { return d.prog }

// LastLine returns the line that most recently finished executing.
func (d *Debugger) LastLine() int { return d.lastLine }

// Exited reports termination.
func (d *Debugger) Exited() (int, bool) { return d.exitCode, d.exited }

// CurrentLine returns the source line of the current pc (0 in runtime code).
func (d *Debugger) CurrentLine() int { return d.prog.LineAt(d.m.PC()) }

// CurrentFunc returns the function containing the pc.
func (d *Debugger) CurrentFunc() *isa.FuncInfo { return d.prog.FuncAt(d.m.PC()) }

// Start begins execution and pauses at main's first source line.
func (d *Debugger) Start() (Stop, error) {
	if d.started {
		return Stop{}, errors.New("dbg: already started")
	}
	d.started = true
	main := d.prog.FuncByName("main")
	target := d.prog.Entry
	if main != nil {
		target = main.PrologueEnd
		if target == 0 {
			target = main.Entry
		}
	}
	// Run to the entry stop without honoring user breakpoints (none can
	// legitimately fire before main's first line in our programs).
	for i := uint64(0); i < d.StepBudget; i++ {
		if d.m.PC() == target {
			return d.locate(Stop{Reason: StopEntry}), nil
		}
		stop := d.m.StepOne()
		switch stop.Kind {
		case vm.StopStep:
		case vm.StopExit:
			return d.finish(stop), nil
		case vm.StopFault:
			return d.fault(stop), nil
		default:
			// Watch hits before main belong to nobody; ignore.
		}
	}
	return Stop{}, fmt.Errorf("dbg: entry not reached within budget")
}

// locate fills Line/Function from the current pc.
func (d *Debugger) locate(s Stop) Stop {
	s.Line = d.prog.LineAt(d.m.PC())
	if f := d.prog.FuncAt(d.m.PC()); f != nil {
		s.Function = f.Name
	}
	return s
}

func (d *Debugger) finish(stop vm.Stop) Stop {
	d.exited, d.halted = true, true
	d.exitCode = stop.ExitCode
	return Stop{Reason: StopExited, ExitCode: stop.ExitCode}
}

func (d *Debugger) fault(stop vm.Stop) Stop {
	d.exited = true
	d.exitCode = 139
	return d.locate(Stop{Reason: StopFault, Fault: stop.Err.Error(), ExitCode: 139})
}

// interrupted reports a supervision stop (cooperative interrupt or tripped
// instruction budget) as a normal, located pause: the inferior stays alive
// and resumable, with registers, memory and frames inspectable.
func (d *Debugger) interrupted(detail string) Stop {
	return d.locate(Stop{Reason: StopInterrupted, Detail: detail})
}

// Depth returns the current frame depth: main's frame is 0. It counts the
// frames Unwind would list without building the list.
func (d *Debugger) Depth() int {
	n := 0
	d.walk(func(FrameRec) { n++ })
	return n - 1
}

// FrameRec is one unwound stack frame.
type FrameRec struct {
	Fn *isa.FuncInfo
	PC uint64
	FP uint64
}

// Unwind walks the fp chain from the current pc outward, stopping at
// _start. The innermost frame is first.
func (d *Debugger) Unwind() []FrameRec {
	var out []FrameRec
	d.walk(func(fr FrameRec) { out = append(out, fr) })
	return out
}

// walk visits the frames of the fp chain, innermost first; none after the
// program exited, while a fault leaves its frames inspectable.
func (d *Debugger) walk(visit func(FrameRec)) {
	if d.halted {
		return
	}
	pc := d.m.PC()
	fp := d.m.Reg(isa.FP)
	if d.atEpilogueRet(pc) {
		// The epilogue has reloaded fp with the caller's, but its first
		// instruction left sp at the returning frame's fp.
		fp = d.m.Reg(isa.SP)
	}
	for i := 0; i < 10000; i++ {
		fn := d.prog.FuncAt(pc)
		if fn == nil || fn.Name == "_start" {
			break
		}
		visit(FrameRec{Fn: fn, PC: pc, FP: fp})
		retPC, err1 := d.m.ReadU64(fp - 8)
		callerFP, err2 := d.m.ReadU64(fp - 16)
		if err1 != nil || err2 != nil {
			break
		}
		pc, fp = retPC, callerFP
	}
}

// atEpilogueRet reports whether pc is the ret that ends a compiled
// epilogue (sp = fp; ld ra, -8(sp); ld fp, -16(sp); ret), where a
// return-event breakpoint stops.
func (d *Debugger) atEpilogueRet(pc uint64) bool {
	idx, ok := isa.PCToIndex(pc)
	if !ok || idx < 1 || idx >= len(d.prog.Instrs) || !d.prog.Instrs[idx].IsRet() {
		return false
	}
	prev := d.prog.Instrs[idx-1]
	return prev.Op == isa.LD && prev.Rd == isa.FP && prev.Rs1 == isa.SP && prev.Imm == -16
}

// BreakAtLine arms a breakpoint before the given source line.
func (d *Debugger) BreakAtLine(line, maxDepth int) (*Breakpoint, error) {
	pcs := d.prog.PCsForLine(line)
	if len(pcs) == 0 {
		return nil, fmt.Errorf("dbg: no code at line %d", line)
	}
	return d.addBP(&Breakpoint{PCs: pcs, Line: line, MaxDepth: maxDepth}), nil
}

// BreakAtFunc arms a breakpoint at the named function's prologue end, so
// arguments are inspectable when it fires.
func (d *Debugger) BreakAtFunc(name string, maxDepth int) (*Breakpoint, error) {
	fn := d.prog.FuncByName(name)
	if fn == nil {
		return nil, fmt.Errorf("dbg: no function %q", name)
	}
	pc := fn.PrologueEnd
	if pc == 0 {
		pc = fn.Entry
	}
	return d.addBP(&Breakpoint{
		PCs: []uint64{pc}, Function: name,
		Line: d.prog.LineAt(pc), MaxDepth: maxDepth,
	}), nil
}

// BreakAtFuncExit disassembles the function and arms a breakpoint at every
// RET instruction found — the paper's function-exit mechanism (its x86
// retq scan). The return value is in a0 when it fires.
func (d *Debugger) BreakAtFuncExit(name string) (*Breakpoint, error) {
	fn := d.prog.FuncByName(name)
	if fn == nil {
		return nil, fmt.Errorf("dbg: no function %q", name)
	}
	var pcs []uint64
	for _, line := range d.prog.Disassemble(fn.Entry, fn.End) {
		if line.Instr.IsRet() {
			pcs = append(pcs, line.PC)
		}
	}
	if len(pcs) == 0 {
		return nil, fmt.Errorf("dbg: no ret instruction found in %q", name)
	}
	return d.addBP(&Breakpoint{PCs: pcs, Function: name, Line: fn.BodyEnd}), nil
}

// BreakAtPC arms a raw instruction breakpoint.
func (d *Debugger) BreakAtPC(pc uint64) *Breakpoint {
	return d.addBP(&Breakpoint{PCs: []uint64{pc}})
}

func (d *Debugger) addBP(bp *Breakpoint) *Breakpoint {
	d.nextBPID++
	bp.ID = d.nextBPID
	d.bps[bp.ID] = bp
	for _, pc := range bp.PCs {
		d.m.AddBreakpoint(pc)
	}
	return bp
}

// RemoveBreakpoint disarms a breakpoint; machine breakpoints shared with
// other Breakpoints stay armed.
func (d *Debugger) RemoveBreakpoint(id int) {
	bp, ok := d.bps[id]
	if !ok {
		return
	}
	delete(d.bps, id)
	for _, pc := range bp.PCs {
		if !d.pcArmed(pc) {
			d.m.RemoveBreakpoint(pc)
		}
	}
}

func (d *Debugger) pcArmed(pc uint64) bool {
	for _, bp := range d.bps {
		for _, p := range bp.PCs {
			if p == pc {
				return true
			}
		}
	}
	return false
}

// bpsAt returns the breakpoints armed at pc.
func (d *Debugger) bpsAt(pc uint64) []*Breakpoint {
	var out []*Breakpoint
	for _, bp := range d.bps {
		for _, p := range bp.PCs {
			if p == pc {
				out = append(out, bp)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WatchGlobal arms a watchpoint on a global variable.
func (d *Debugger) WatchGlobal(name string, internal bool) (*Watchpoint, error) {
	g := d.prog.GlobalByName(name)
	if g == nil {
		return nil, fmt.Errorf("dbg: no global %q", name)
	}
	size := uint64(g.Type.Sizeof(d.prog.Structs))
	return d.watchAddr(name, uint64(g.Offset), size, internal), nil
}

// WatchLocal arms a watchpoint on a local of the named function. The
// address is frame-relative, so the watch is bound to the innermost live
// activation of that function at arming time.
func (d *Debugger) WatchLocal(fn, name string) (*Watchpoint, error) {
	for _, fr := range d.Unwind() {
		if fr.Fn.Name != fn {
			continue
		}
		for _, lv := range fr.Fn.Locals {
			if lv.Name == name {
				size := uint64(lv.Type.Sizeof(d.prog.Structs))
				return d.watchAddr(fn+":"+name, fr.FP+uint64(lv.Offset), size, false), nil
			}
		}
	}
	return nil, fmt.Errorf("dbg: no live local %s:%s", fn, name)
}

// WatchAddr arms a raw watchpoint.
func (d *Debugger) WatchAddr(name string, addr, size uint64) *Watchpoint {
	return d.watchAddr(name, addr, size, false)
}

func (d *Debugger) watchAddr(name string, addr, size uint64, internal bool) *Watchpoint {
	d.nextBPID++
	w := &Watchpoint{ID: d.nextBPID, Name: name, Addr: addr, Size: size, Internal: internal}
	w.vmID = d.m.AddWatch(addr, size)
	d.watches[w.ID] = w
	return w
}

// RemoveWatch disarms a watchpoint.
func (d *Debugger) RemoveWatch(id int) {
	if w, ok := d.watches[id]; ok {
		d.m.RemoveWatch(w.vmID)
		delete(d.watches, id)
	}
}

func (d *Debugger) watchByVMID(id int) *Watchpoint {
	for _, w := range d.watches {
		if w.vmID == id {
			return w
		}
	}
	return nil
}

// Continue resumes until a reportable stop. Internal and maxdepth-filtered
// hits are handled by resuming transparently; internal watch hits are
// delivered to onInternal (may be nil) without pausing.
func (d *Debugger) Continue(onInternal func(*Watchpoint, *vm.WatchHit)) (Stop, error) {
	if !d.started {
		return Stop{}, ErrNotStarted
	}
	if d.exited {
		return Stop{}, ErrExited
	}
	start := d.m.Steps()
	for d.m.Steps()-start < d.StepBudget {
		stop := d.m.Run(d.StepBudget)
		switch stop.Kind {
		case vm.StopExit:
			return d.finish(stop), nil
		case vm.StopFault:
			return d.fault(stop), nil
		case vm.StopInterrupt:
			return d.interrupted("interrupt"), nil
		case vm.StopBudget:
			return d.interrupted("step-budget"), nil
		case vm.StopBreak:
			hit := d.reportableBP()
			if hit == nil {
				// Filtered out: step past and keep going.
				if s := d.m.StepOne(); s.Kind != vm.StopStep {
					return d.handleRaw(s, onInternal)
				}
				continue
			}
			if hit.Temporary {
				d.RemoveBreakpoint(hit.ID)
			}
			d.lastLine = d.prog.LineAt(d.m.PC()) // breakpoint is *before* the line
			st := d.locate(Stop{Reason: StopBreakpoint, Breakpoint: hit.ID})
			if hit.Function != "" {
				st.Function = hit.Function
			}
			return st, nil
		case vm.StopWatch:
			w := d.watchByVMID(stop.Watch.ID)
			if w == nil {
				continue
			}
			if w.Internal {
				if onInternal != nil {
					onInternal(w, stop.Watch)
				}
				continue
			}
			if !d.reportableWatch(w) {
				continue
			}
			return d.locate(Stop{Reason: StopWatch, Watch: &WatchStop{
				ID: w.ID, Name: w.Name, Addr: w.Addr, Size: w.Size,
				Old: stop.Watch.Old, New: stop.Watch.New,
			}}), nil
		case vm.StopEBreak:
			return d.locate(Stop{Reason: StopBreakpoint}), nil
		default:
			return Stop{}, fmt.Errorf("dbg: unexpected machine stop %v", stop.Kind)
		}
	}
	// The per-command safety budget ran dry (a runaway that armed no
	// explicit limit): report it the same way as a tripped budget, so the
	// tool gets an inspectable pause, not a dead session.
	return d.interrupted("step-budget"), nil
}

func (d *Debugger) handleRaw(s vm.Stop, onInternal func(*Watchpoint, *vm.WatchHit)) (Stop, error) {
	switch s.Kind {
	case vm.StopExit:
		return d.finish(s), nil
	case vm.StopFault:
		return d.fault(s), nil
	case vm.StopWatch:
		w := d.watchByVMID(s.Watch.ID)
		if w != nil && w.Internal && onInternal != nil {
			onInternal(w, s.Watch)
		}
		return d.Continue(onInternal)
	}
	return Stop{}, fmt.Errorf("dbg: unexpected stop %v", s.Kind)
}

// reportableBP picks the breakpoint to report at the current pc, applying
// maxdepth filtering; nil means resume silently.
func (d *Debugger) reportableBP() *Breakpoint {
	var depth = -1
	for _, bp := range d.bpsAt(d.m.PC()) {
		if bp.Internal {
			continue
		}
		if bp.MaxDepth > 0 {
			if depth < 0 {
				depth = d.Depth()
			}
			if depth >= bp.MaxDepth {
				continue
			}
		}
		if bp.Cond != nil && !bp.Cond() {
			continue
		}
		if bp.IgnoreLeft > 0 {
			bp.IgnoreLeft--
			continue
		}
		return bp
	}
	return nil
}

// reportableWatch applies condition and ignore filtering to a non-internal
// watchpoint hit; false means resume silently.
func (d *Debugger) reportableWatch(w *Watchpoint) bool {
	if w.Cond != nil && !w.Cond() {
		return false
	}
	if w.IgnoreLeft > 0 {
		w.IgnoreLeft--
		return false
	}
	return true
}

// StepLine executes until a different source line is reached, entering
// calls (GDB's step). Runtime code (no line info) is skipped; entering a
// function lands past its prologue. Breakpoints, watchpoints, exits and
// faults interrupt the step and are reported instead.
func (d *Debugger) StepLine(onInternal func(*Watchpoint, *vm.WatchHit)) (Stop, error) {
	return d.stepCore(false, onInternal)
}

// NextLine executes until a different source line at the same or shallower
// frame depth (GDB's next).
func (d *Debugger) NextLine(onInternal func(*Watchpoint, *vm.WatchHit)) (Stop, error) {
	return d.stepCore(true, onInternal)
}

func (d *Debugger) stepCore(over bool, onInternal func(*Watchpoint, *vm.WatchHit)) (Stop, error) {
	if !d.started {
		return Stop{}, ErrNotStarted
	}
	if d.exited {
		return Stop{}, ErrExited
	}
	startLine := d.prog.LineAt(d.m.PC())
	// depth counts call/return transitions relative to the start frame,
	// by classifying the executed instructions: +1 on `jal/jalr ra`,
	// -1 on `ret`.
	depth := 0

	for i := uint64(0); i < d.StepBudget; i++ {
		if d.m.TakeInterrupt() {
			return d.interrupted("interrupt"), nil
		}
		if d.m.TripStepLimit() {
			return d.interrupted("step-budget"), nil
		}
		var isCall, isRet bool
		if idx, ok := isa.PCToIndex(d.m.PC()); ok && idx < len(d.prog.Instrs) {
			ins := d.prog.Instrs[idx]
			isCall = (ins.Op == isa.JAL || ins.Op == isa.JALR) && ins.Rd == isa.RA
			isRet = ins.IsRet()
		}
		stop := d.m.StepOne()
		if stop.Kind != vm.StopFault {
			if isCall {
				depth++
			}
			if isRet {
				depth--
			}
		}
		switch stop.Kind {
		case vm.StopStep:
		case vm.StopExit:
			d.lastLine = startLine
			return d.finish(stop), nil
		case vm.StopFault:
			return d.fault(stop), nil
		case vm.StopWatch:
			w := d.watchByVMID(stop.Watch.ID)
			if w != nil && w.Internal {
				if onInternal != nil {
					onInternal(w, stop.Watch)
				}
				continue
			}
			if w == nil || !d.reportableWatch(w) {
				continue
			}
			return d.locate(Stop{Reason: StopWatch, Watch: &WatchStop{
				ID: w.ID, Name: w.Name, Addr: w.Addr, Size: w.Size,
				Old: stop.Watch.Old, New: stop.Watch.New,
			}}), nil
		case vm.StopEBreak:
			return d.locate(Stop{Reason: StopBreakpoint}), nil
		}

		pc := d.m.PC()
		// User breakpoints interrupt stepping.
		if len(d.bpsAt(pc)) > 0 {
			if hit := d.reportableBP(); hit != nil {
				if hit.Temporary {
					d.RemoveBreakpoint(hit.ID)
				}
				d.lastLine = startLine
				return d.locate(Stop{Reason: StopBreakpoint, Breakpoint: hit.ID}), nil
			}
		}

		if over && depth > 0 {
			continue // inside a callee: step over it
		}
		line := d.prog.LineAt(pc)
		if line == 0 {
			continue // runtime or _start code: invisible to stepping
		}
		fn := d.prog.FuncAt(pc)
		if fn == nil {
			continue
		}
		// Skip prologues: land where arguments are stored.
		if pc >= fn.Entry && pc < fn.PrologueEnd {
			continue
		}
		if line != startLine || depth != 0 {
			d.lastLine = startLine
			return d.locate(Stop{Reason: StopStep}), nil
		}
	}
	return d.interrupted("step-budget"), nil
}

// SetHeapMap installs the tracker-maintained live-heap map used by
// inspection to size heap arrays (paper Section II-C1).
func (d *Debugger) SetHeapMap(m map[uint64]uint64) {
	d.heapMap = m
}

// HeapMap returns the installed heap map.
func (d *Debugger) HeapMap() map[uint64]uint64 { return d.heapMap }
