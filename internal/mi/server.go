package mi

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"easytracker/internal/dbg"
	"easytracker/internal/isa"
	"easytracker/internal/query"
	"easytracker/internal/vm"
)

// Server executes MI commands against a MiniGDB instance. It corresponds to
// the GDB-side of the paper's Fig. 4: the MI interpreter plus the loaded
// custom extensions (maxdepth breakpoints, the inspection command, and the
// heap-interposition bookkeeping).
type Server struct {
	prog *isa.Program
	d    *dbg.Debugger

	stdout bytes.Buffer // inferior output, drained into @ records
	stdin  io.Reader

	// watchTypes remembers the declared type of named watchpoints so
	// stop records can render old/new values.
	watchTypes map[int]*isa.TypeInfo
	// returns holds the breakpoints armed as return events (--event
	// return or --exit), whose stops carry the return value.
	returns map[int]bool

	// Heap interposition state (the paper's silent watchpoints).
	trackHeap bool
	heapMap   map[uint64]uint64
	pendSize  uint64

	running bool
	closed  bool

	// dbgP mirrors d for goroutines other than the one running a
	// command: Interrupt (called from Serve's reader goroutine, another
	// client goroutine or a signal handler) reaches the running machine
	// through it. pendIntr latches an interrupt that arrived before any
	// machine existed; exec commands consume it. budget is the armed
	// -et-budget instruction limit, applied to the machine at -exec-run.
	dbgP     atomic.Pointer[dbg.Debugger]
	pendIntr atomic.Bool
	budget   uint64

	// out is the reply of the command being run, which its records are
	// appended to as it runs.
	out printer
}

// replyBufs holds the buffers replies are printed into between commands,
// so a server between commands keeps none.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply bounds the reply buffers replyBufs keeps: one that a rare
// huge State grew is left to the collector.
const maxPooledReply = 64 << 10

// NewServer builds a server; prog may be nil when the client will load a
// program image with -file-exec-and-symbols.
func NewServer(prog *isa.Program) *Server {
	return &Server{
		prog:       prog,
		watchTypes: map[int]*isa.TypeInfo{},
		heapMap:    map[uint64]uint64{},
	}
}

// SetStdin provides the inferior's input stream.
func (s *Server) SetStdin(r io.Reader) { s.stdin = r }

// Interrupt asks the running inferior to pause: the machine stops with
// "interrupted" before its next instruction and the in-flight exec command
// returns a normal *stopped response. When no machine exists yet the
// interrupt is latched and delivered by the next exec command. Safe to
// call from any goroutine (Serve's reader, a client's, signal handlers).
func (s *Server) Interrupt() {
	if d := s.dbgP.Load(); d != nil {
		d.Machine().Interrupt()
		return
	}
	s.pendIntr.Store(true)
}

// deliverPending forwards a latched interrupt to the machine; called at the
// start of every exec command, closing the race where an interrupt arrives
// between machine creation and dbgP publication.
func (s *Server) deliverPending() {
	if s.d != nil && s.pendIntr.CompareAndSwap(true, false) {
		s.d.Machine().Interrupt()
	}
}

// Serve reads commands from a byte-stream conn (cmd/minigdb's StdioConn)
// until -gdb-exit or EOF. A dedicated reader goroutine keeps draining the
// stream while a command executes — that is what lets -exec-interrupt
// arrive DURING a blocking -exec-continue. Interrupt lines are consumed out
// of band (they produce no response of their own, keeping
// one-response-per-command alignment for the client); every other line is
// queued to the dispatch loop in arrival order. An in-process client needs
// none of this: Connect runs each command on the sender's goroutine.
func (s *Server) Serve(conn Conn) error {
	defer conn.Close()
	lines := make(chan string)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(lines)
		for {
			line, err := conn.Recv()
			if err != nil {
				return // client went away
			}
			if isInterruptLine(line) {
				s.Interrupt()
				continue
			}
			select {
			case lines <- line:
			case <-done:
				return
			}
		}
	}()
	for line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		for rep := s.run(SplitCommand(line)); rep != ""; {
			var l string
			l, rep, _ = strings.Cut(rep, "\n")
			if err := conn.Send(l); err != nil {
				return err
			}
		}
		if s.closed {
			return nil
		}
	}
	return nil
}

// isInterruptLine recognizes a [token]-exec-interrupt command line.
func isInterruptLine(line string) bool {
	_, op, _, err := SplitCommand(line)
	return err == nil && op == "-exec-interrupt"
}

// run runs one command line SplitCommand split (err is its error) and
// returns its reply, the lines Connect and Serve carry back: its records,
// each ended by a newline, then the "(gdb)" prompt's line. The records are
// printed into one pooled buffer, which the reply is copied out of once.
func (s *Server) run(token, op string, args []string, err error) string {
	buf := replyBufs.Get().(*[]byte)
	s.out = printer{b: (*buf)[:0]}
	if err != nil {
		s.errRec("", err)
	} else if err := s.dispatch(token, op, args); err != nil {
		// What the command printed before it failed is dropped; the
		// inferior output it produced is not.
		s.out.b = s.out.b[:0]
		s.drainOutput()
		s.errRec(token, err)
	}
	s.out.b = append(s.out.b, "(gdb)\n"...)
	reply := string(s.out.b)
	if cap(s.out.b) <= maxPooledReply {
		*buf = s.out.b[:0]
		replyBufs.Put(buf)
	}
	s.out = printer{}
	return reply
}

// errRec prints an ^error record.
func (s *Server) errRec(token string, err error) {
	s.out.begin(ResultRecord, token, "error")
	s.out.str("msg", err.Error())
	s.out.line()
}

// done begins a ^done record; the caller prints its results and ends its
// line.
func (s *Server) done(token string) {
	s.out.begin(ResultRecord, token, "done")
}

// doneLine prints a ^done record without results.
func (s *Server) doneLine(token string) {
	s.done(token)
	s.out.line()
}

// drainOutput prints buffered inferior output as a target stream record.
func (s *Server) drainOutput() {
	if s.stdout.Len() == 0 {
		return
	}
	s.out.stream('@', string(s.stdout.Bytes()))
	s.out.line()
	s.stdout.Reset()
}

func (s *Server) need() error {
	if s.d == nil {
		return fmt.Errorf("no program loaded (use -file-exec-and-symbols)")
	}
	return nil
}

// dispatch runs one command, printing its records into s.out. On an error
// run drops whatever it printed.
func (s *Server) dispatch(token, op string, args []string) error {
	p := &s.out
	switch op {
	case "-gdb-exit":
		s.closed = true
		p.begin(ResultRecord, token, "exit")
		p.line()
		return nil

	case "-file-exec-and-symbols":
		if len(args) != 1 {
			return fmt.Errorf("usage: -file-exec-and-symbols PATH")
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		var prog isa.Program
		if err := json.Unmarshal(data, &prog); err != nil {
			return fmt.Errorf("bad program image: %v", err)
		}
		s.prog = &prog
		s.doneLine(token)
		return nil

	case "-et-track-heap":
		s.trackHeap = true
		s.doneLine(token)
		return nil

	case "-exec-run":
		if s.prog == nil {
			return fmt.Errorf("no program loaded")
		}
		d, err := dbg.New(s.prog, vm.Config{Stdout: &s.stdout, Stderr: &s.stdout, Stdin: s.stdin})
		if err != nil {
			return err
		}
		s.d = d
		s.heapMap = map[uint64]uint64{}
		clear(s.returns)
		d.SetHeapMap(s.heapMap)
		if s.budget > 0 {
			d.Machine().SetStepLimit(s.budget)
		}
		s.dbgP.Store(d)
		s.deliverPending()
		if s.trackHeap {
			if err := s.armHeapInterposition(); err != nil {
				return err
			}
		}
		stop, err := d.Start()
		if err != nil {
			return err
		}
		s.stopRecords(token, stop)
		return nil

	case "-exec-interrupt":
		// Normally intercepted out of band, with no reply, by Serve's
		// reader goroutine or Connect's Send.
		s.Interrupt()
		s.doneLine(token)
		return nil

	case "-et-budget":
		// Arm an instruction budget for the inferior: the machine pauses
		// with reason="interrupted" detail="step-budget" once it has
		// retired N instructions. Applied at -exec-run (so a budget set
		// before the run — or replayed by session recovery — sticks) and
		// immediately when the inferior is already live.
		if len(args) != 1 {
			return fmt.Errorf("-et-budget wants one argument")
		}
		n, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad budget %q", args[0])
		}
		s.budget = n
		if s.d != nil {
			s.d.Machine().SetStepLimit(n)
		}
		s.doneLine(token)
		return nil

	case "-exec-continue", "-exec-step", "-exec-next", "-exec-finish":
		if err := s.need(); err != nil {
			return err
		}
		s.deliverPending()
		var stop dbg.Stop
		var err error
		switch op {
		case "-exec-continue":
			stop, err = s.d.Continue(s.onInternal)
		case "-exec-step":
			stop, err = s.d.StepLine(s.onInternal)
		case "-exec-next":
			stop, err = s.d.NextLine(s.onInternal)
		default:
			stop, err = s.d.Finish(s.onInternal)
		}
		if err != nil {
			return err
		}
		s.stopRecords(token, stop)
		return nil

	case "-break-insert":
		return s.breakInsert(token, args)

	case "-break-delete":
		if err := s.need(); err != nil {
			return err
		}
		for _, a := range args {
			id, err := strconv.Atoi(a)
			if err != nil {
				return fmt.Errorf("bad breakpoint id %q", a)
			}
			s.d.RemoveBreakpoint(id)
			s.d.RemoveWatch(id)
			delete(s.returns, id)
		}
		s.doneLine(token)
		return nil

	case "-break-watch":
		return s.breakWatch(token, args)

	case "-stack-list-frames":
		if err := s.need(); err != nil {
			return err
		}
		s.done(token)
		p.open("stack", '[')
		for i, fr := range s.d.Unwind() {
			p.open("", '{')
			p.int("level", int64(i))
			p.str("func", fr.Fn.Name)
			p.int("line", int64(s.prog.LineAt(fr.PC)))
			p.hex("addr", fr.PC)
			p.hex("fp", fr.FP)
			p.close('}')
		}
		p.close(']')
		p.line()
		return nil

	case "-et-inspect":
		if err := s.need(); err != nil {
			return err
		}
		// The codec's bytes cross as they stand, behind a length prefix:
		// the codec escapes every control byte, so they hold no line end.
		// They are appended in place, and the prefix put before them.
		s.done(token)
		p.name("state")
		at := len(p.b)
		p.b = s.d.State().AppendJSON(p.b)
		n := len(p.b) - at
		var pre [24]byte
		prefix := appendRawPrefix(pre[:0], n)
		p.b = append(p.b, prefix...)
		copy(p.b[at+len(prefix):], p.b[at:at+n])
		copy(p.b[at:], prefix)
		p.uint("version", s.d.DataVersion())
		p.line()
		return nil

	case "-et-heap-blocks":
		s.done(token)
		p.open("blocks", '[')
		for addr, size := range s.heapMap {
			p.open("", '{')
			p.uint("addr", addr)
			p.uint("size", size)
			p.close('}')
		}
		p.close(']')
		p.line()
		return nil

	case "-data-list-register-values":
		if err := s.need(); err != nil {
			return err
		}
		regs := s.d.Machine().Registers()
		s.done(token)
		p.open("register-values", '[')
		for i, n := range isa.RegNames() {
			p.open("", '{')
			p.int("number", int64(i))
			p.str("name", n)
			p.uint("value", regs[i])
			p.close('}')
		}
		p.open("", '{')
		p.int("number", 32)
		p.str("name", "pc")
		p.uint("value", s.d.Machine().PC())
		p.close('}')
		p.close(']')
		p.line()
		return nil

	case "-data-read-memory":
		if err := s.need(); err != nil {
			return err
		}
		if len(args) != 2 {
			return fmt.Errorf("usage: -data-read-memory ADDR SIZE")
		}
		addr, err := strconv.ParseUint(args[0], 0, 64)
		if err != nil {
			return fmt.Errorf("bad address %q", args[0])
		}
		size, err := strconv.ParseUint(args[1], 0, 64)
		if err != nil || size > 1<<20 {
			return fmt.Errorf("bad size %q", args[1])
		}
		mem, err := s.d.Machine().ReadMem(addr, size)
		if err != nil {
			return err
		}
		s.done(token)
		p.name("memory")
		p.b = append(p.b, '"')
		p.b = hex.AppendEncode(p.b, mem)
		p.b = append(p.b, '"')
		p.line()
		return nil

	case "-data-disassemble":
		if err := s.need(); err != nil {
			return err
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: -data-disassemble FUNC")
		}
		fn := s.prog.FuncByName(args[0])
		if fn == nil {
			return fmt.Errorf("no function %q", args[0])
		}
		s.done(token)
		p.open("asm_insns", '[')
		for _, dl := range s.prog.Disassemble(fn.Entry, fn.End) {
			p.open("", '{')
			p.hex("address", dl.PC)
			p.str("inst", dl.Text)
			p.close('}')
		}
		p.close(']')
		p.line()
		return nil

	case "-et-segments":
		if err := s.need(); err != nil {
			return err
		}
		s.done(token)
		p.open("segments", '[')
		for _, sg := range s.d.Machine().Segments() {
			p.open("", '{')
			p.str("name", sg.Name)
			p.uint("start", sg.Start)
			p.uint("size", sg.Size)
			p.close('}')
		}
		p.close(']')
		p.line()
		return nil

	case "-list-features":
		s.done(token)
		p.open("features", '[')
		for _, f := range features {
			p.sep()
			p.b = appendQuoted(p.b, f)
		}
		p.close(']')
		p.line()
		return nil
	}
	return fmt.Errorf("undefined MI command: %s", op)
}

// features are the extensions -list-features reports.
var features = [...]string{
	"et-inspect", "et-maxdepth", "et-heap-track", "et-segments",
	"et-exec-interrupt", "et-budget", "et-break-condition",
}

// breakInsert handles -break-insert [-t] [-c EXPR] [-i N] [--maxdepth N]
// (LINE | *ADDR | --function NAME | --exit NAME).
func (s *Server) breakInsert(token string, args []string) error {
	if err := s.need(); err != nil {
		return err
	}
	maxDepth := 0
	ignore := 0
	temporary := false
	cond := ""
	event := "" // overrides the mode-derived event kind (--event)
	var target string
	mode := "line"
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-t":
			temporary = true
		case "-c":
			i++
			if i >= len(args) {
				return fmt.Errorf("-c needs a condition")
			}
			cond = args[i]
		case "-i":
			i++
			if i >= len(args) {
				return fmt.Errorf("-i needs a count")
			}
			v, err := strconv.Atoi(args[i])
			if err != nil || v < 0 {
				return fmt.Errorf("bad ignore count %q", args[i])
			}
			ignore = v
		case "--maxdepth":
			i++
			if i >= len(args) {
				return fmt.Errorf("--maxdepth needs a value")
			}
			v, err := strconv.Atoi(args[i])
			if err != nil {
				return fmt.Errorf("bad maxdepth %q", args[i])
			}
			maxDepth = v
		case "--function":
			mode = "func"
		case "--exit":
			mode = "exit"
		case "--event":
			i++
			if i >= len(args) {
				return fmt.Errorf("--event needs a kind")
			}
			switch args[i] {
			case query.EventLine, query.EventCall, query.EventReturn:
				event = args[i]
			default:
				return fmt.Errorf("bad event kind %q", args[i])
			}
		default:
			target = args[i]
		}
	}
	if event == "" {
		switch mode {
		case "func":
			event = query.EventCall
		case "exit":
			event = query.EventReturn
		default:
			event = query.EventLine
		}
	}
	var condFn func() bool
	if cond != "" {
		fn, err := s.compileCond(cond, event)
		if err != nil {
			return err
		}
		condFn = fn
	}
	if target == "" {
		return fmt.Errorf("-break-insert needs a location")
	}
	var bp *dbg.Breakpoint
	var err error
	switch {
	case strings.HasPrefix(target, "*"):
		addr, perr := strconv.ParseUint(target[1:], 0, 64)
		if perr != nil {
			return fmt.Errorf("bad address %q", target)
		}
		bp = s.d.BreakAtPC(addr)
		bp.MaxDepth = maxDepth
	case mode == "func":
		bp, err = s.d.BreakAtFunc(target, maxDepth)
	case mode == "exit":
		bp, err = s.d.BreakAtFuncExit(target)
	default:
		// LINE or FILE:LINE.
		lineStr := target
		if i := strings.LastIndex(target, ":"); i >= 0 {
			lineStr = target[i+1:]
		}
		line, perr := strconv.Atoi(lineStr)
		if perr != nil {
			return fmt.Errorf("bad line %q", target)
		}
		bp, err = s.d.BreakAtLine(line, maxDepth)
	}
	if err != nil {
		return err
	}
	bp.Temporary = temporary
	bp.Cond = condFn
	bp.IgnoreLeft = ignore
	if event == query.EventReturn {
		if s.returns == nil {
			s.returns = map[int]bool{}
		}
		s.returns[bp.ID] = true
	}
	s.done(token)
	s.out.open("bkpt", '{')
	s.out.int("number", int64(bp.ID))
	s.out.str("func", bp.Function)
	s.out.int("line", int64(bp.Line))
	s.out.close('}')
	s.out.line()
	return nil
}

// breakWatch handles -break-watch [-c EXPR] [-i N] (NAME | FUNC:NAME |
// *ADDR SIZE).
func (s *Server) breakWatch(token string, args []string) error {
	if err := s.need(); err != nil {
		return err
	}
	cond := ""
	ignore := 0
	for len(args) > 0 {
		if args[0] == "-c" && len(args) > 1 {
			cond = args[1]
			args = args[2:]
			continue
		}
		if args[0] == "-i" && len(args) > 1 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 0 {
				return fmt.Errorf("bad ignore count %q", args[1])
			}
			ignore = v
			args = args[2:]
			continue
		}
		break
	}
	if len(args) == 0 {
		return fmt.Errorf("-break-watch needs an expression")
	}
	var condFn func() bool
	if cond != "" {
		fn, err := s.compileCond(cond, query.EventLine)
		if err != nil {
			return err
		}
		condFn = fn
	}
	var w *dbg.Watchpoint
	var ty *isa.TypeInfo
	var err error
	target := args[0]
	switch {
	case strings.HasPrefix(target, "*"):
		if len(args) != 2 {
			return fmt.Errorf("usage: -break-watch *ADDR SIZE")
		}
		addr, e1 := strconv.ParseUint(target[1:], 0, 64)
		size, e2 := strconv.ParseUint(args[1], 0, 64)
		if e1 != nil || e2 != nil {
			return fmt.Errorf("bad address/size")
		}
		w = s.d.WatchAddr(target, addr, size)
		ty = isa.IntType()
	case strings.Contains(target, ":"):
		i := strings.Index(target, ":")
		fn, name := target[:i], target[i+1:]
		w, err = s.d.WatchLocal(fn, name)
		if err != nil {
			return err
		}
		ty = s.localType(fn, name)
	default:
		w, err = s.d.WatchGlobal(target, false)
		if err != nil {
			return err
		}
		if g := s.prog.GlobalByName(target); g != nil {
			ty = g.Type
		}
	}
	if ty == nil {
		ty = isa.IntType()
	}
	w.Cond = condFn
	w.IgnoreLeft = ignore
	s.watchTypes[w.ID] = ty
	s.done(token)
	s.out.open("wpt", '{')
	s.out.int("number", int64(w.ID))
	s.out.str("exp", w.Name)
	s.out.close('}')
	s.out.line()
	return nil
}

func (s *Server) localType(fn, name string) *isa.TypeInfo {
	f := s.prog.FuncByName(fn)
	if f == nil {
		return nil
	}
	for _, lv := range f.Locals {
		if lv.Name == name {
			return lv.Type
		}
	}
	return nil
}

// armHeapInterposition sets the paper's silent internal watchpoints on the
// interposition globals written by the runtime wrappers.
func (s *Server) armHeapInterposition() error {
	for _, g := range []string{"__et_alloc_ptr", "__et_free_ptr"} {
		if _, err := s.d.WatchGlobal(g, true); err != nil {
			return fmt.Errorf("heap tracking unavailable: %v", err)
		}
	}
	return nil
}

// onInternal maintains the heap-block map from interposition watch hits,
// exactly as the paper's extension does, then resumes silently.
func (s *Server) onInternal(w *dbg.Watchpoint, hit *vm.WatchHit) {
	ptr := leBytes(hit.New)
	switch w.Name {
	case "__et_alloc_ptr":
		if ptr == 0 {
			return
		}
		size := uint64(0)
		if g := s.prog.GlobalByName("__et_alloc_size"); g != nil {
			if v, err := s.d.Machine().ReadU64(uint64(g.Offset)); err == nil {
				size = v
			}
		}
		s.heapMap[ptr] = size
	case "__et_free_ptr":
		delete(s.heapMap, ptr)
	}
}

func leBytes(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// stopRecords prints a debugger stop as MI records: buffered inferior
// output first, then ^running + *stopped (the synchronous condensation of
// GDB's async protocol). A stop that leaves the inferior paused carries the
// machine's data version, as -et-inspect reports it, and program counter,
// so a client can tell from the stop alone whether memory changed since an
// earlier pause: neither moves until the next execution command. A stop at
// a return-event breakpoint carries return-value, a0 at the stop in
// decimal, as GDB's function-finished stop carries the value the function
// returned.
func (s *Server) stopRecords(token string, stop dbg.Stop) {
	s.drainOutput()
	p := &s.out
	p.begin(ResultRecord, token, "running")
	p.line()
	p.begin(AsyncRecord, "", "stopped")
	p.str("reason", stop.Reason.String())
	switch stop.Reason {
	case dbg.StopExited:
		p.int("exit-code", int64(stop.ExitCode))
	case dbg.StopFault:
		p.str("signal-meaning", stop.Fault)
		p.int("exit-code", int64(stop.ExitCode))
	default:
		p.int("line", int64(stop.Line))
		p.str("func", stop.Function)
		p.int("depth", int64(s.d.Depth()))
		p.uint("version", s.d.DataVersion())
		p.hex("addr", s.d.Machine().PC())
		if stop.Detail != "" {
			p.str("detail", stop.Detail)
		}
		if stop.Reason == dbg.StopBreakpoint {
			p.int("bkptno", int64(stop.Breakpoint))
			if s.returns[stop.Breakpoint] {
				p.int("return-value", int64(s.d.Machine().Registers()[isa.A0]))
			}
		}
		if w := stop.Watch; w != nil {
			ty := s.watchTypes[w.ID]
			p.open("wpt", '{')
			p.int("number", int64(w.ID))
			p.str("exp", w.Name)
			p.close('}')
			p.open("value", '{')
			p.name("old")
			p.b = appendWatched(p.b, w.Old, ty)
			p.name("new")
			p.b = appendWatched(p.b, w.New, ty)
			p.close('}')
		}
	}
	p.line()
}

// appendWatched appends watched raw bytes as a c-string, rendered
// according to the declared type.
func appendWatched(b, raw []byte, ty *isa.TypeInfo) []byte {
	v := leBytes(raw)
	b = append(b, '"')
	switch {
	case ty == nil:
		b = strconv.AppendUint(b, v, 10)
	case ty.Kind == isa.KChar:
		if len(raw) > 0 {
			b = strconv.AppendInt(b, int64(int8(raw[0])), 10)
		} else {
			b = append(b, '0')
		}
	case ty.Kind == isa.KDouble:
		b = strconv.AppendFloat(b, float64frombits(v), 'g', -1, 64)
	case ty.Kind == isa.KPtr:
		b = append(b, "0x"...)
		b = strconv.AppendUint(b, v, 16)
	default:
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, '"')
}
