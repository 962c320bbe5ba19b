package mi

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
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

	// lent is the pooled -et-inspect reply the command being run borrows,
	// until printed gives it back.
	lent *inspectReply
}

// inspectReply is an -et-inspect reply: the State's bytes and the record
// that carries them. Replies are pooled, so a State is written once, into
// the buffer its line is printed from, and its record allocates nothing.
type inspectReply struct {
	state []byte
	rec   [1]Record
	res   [2]Result
}

var inspectReplies = sync.Pool{New: func() any { return new(inspectReply) }}

// maxPooledState bounds the State buffers inspectReplies keeps: one that a
// rare huge State grew is left to the collector.
const maxPooledState = 64 << 10

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
		token, op, args, err := SplitCommand(line)
		for _, r := range s.execute(token, op, args, err) {
			if err := conn.Send(r.Print()); err != nil {
				return err
			}
		}
		s.printed()
		if err := conn.Send("(gdb)"); err != nil {
			return err
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

// printed gives back the -et-inspect reply the command just printed
// borrowed. Only a caller that has printed every record of the reply and
// keeps none calls it.
func (s *Server) printed() {
	if r := s.lent; r != nil {
		s.lent = nil
		if cap(r.state) <= maxPooledState {
			r.rec, r.res = [1]Record{}, [2]Result{}
			inspectReplies.Put(r)
		}
	}
}

// execute runs one command line SplitCommand split; err is its error.
func (s *Server) execute(token, op string, args []string, err error) []Record {
	if err != nil {
		return []Record{errRec("", err)}
	}
	recs, err := s.dispatch(token, op, args)
	if err != nil {
		recs = append(s.drainOutput(), errRec(token, err))
	}
	return recs
}

func errRec(token string, err error) Record {
	return Record{Kind: ResultRecord, Token: token, Class: "error",
		Results: Tuple{{Var: "msg", Val: StringVal(err.Error())}}}
}

func doneRec(token string, results ...Result) Record {
	return Record{Kind: ResultRecord, Token: token, Class: "done", Results: results}
}

// drainOutput converts buffered inferior output into target stream records.
func (s *Server) drainOutput() []Record {
	if s.stdout.Len() == 0 {
		return nil
	}
	out := s.stdout.String()
	s.stdout.Reset()
	return []Record{{Kind: TargetStreamRecord, Stream: out}}
}

func (s *Server) need() error {
	if s.d == nil {
		return fmt.Errorf("no program loaded (use -file-exec-and-symbols)")
	}
	return nil
}

func (s *Server) dispatch(token, op string, args []string) ([]Record, error) {
	switch op {
	case "-gdb-exit":
		s.closed = true
		return []Record{{Kind: ResultRecord, Token: token, Class: "exit"}}, nil

	case "-file-exec-and-symbols":
		if len(args) != 1 {
			return nil, fmt.Errorf("usage: -file-exec-and-symbols PATH")
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			return nil, err
		}
		var prog isa.Program
		if err := json.Unmarshal(data, &prog); err != nil {
			return nil, fmt.Errorf("bad program image: %v", err)
		}
		s.prog = &prog
		return []Record{doneRec(token)}, nil

	case "-et-track-heap":
		s.trackHeap = true
		return []Record{doneRec(token)}, nil

	case "-exec-run":
		if s.prog == nil {
			return nil, fmt.Errorf("no program loaded")
		}
		d, err := dbg.New(s.prog, vm.Config{Stdout: &s.stdout, Stderr: &s.stdout, Stdin: s.stdin})
		if err != nil {
			return nil, err
		}
		s.d = d
		s.heapMap = map[uint64]uint64{}
		d.SetHeapMap(s.heapMap)
		if s.budget > 0 {
			d.Machine().SetStepLimit(s.budget)
		}
		s.dbgP.Store(d)
		s.deliverPending()
		if s.trackHeap {
			if err := s.armHeapInterposition(); err != nil {
				return nil, err
			}
		}
		stop, err := d.Start()
		if err != nil {
			return nil, err
		}
		return s.stopRecords(token, stop), nil

	case "-exec-interrupt":
		// Normally intercepted out of band by Serve's reader goroutine or
		// Connect's Send; this path serves direct Execute callers.
		s.Interrupt()
		return []Record{doneRec(token)}, nil

	case "-et-budget":
		// Arm an instruction budget for the inferior: the machine pauses
		// with reason="interrupted" detail="step-budget" once it has
		// retired N instructions. Applied at -exec-run (so a budget set
		// before the run — or replayed by session recovery — sticks) and
		// immediately when the inferior is already live.
		if len(args) != 1 {
			return nil, fmt.Errorf("-et-budget wants one argument")
		}
		n, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad budget %q", args[0])
		}
		s.budget = n
		if s.d != nil {
			s.d.Machine().SetStepLimit(n)
		}
		return []Record{doneRec(token)}, nil

	case "-exec-continue":
		if err := s.need(); err != nil {
			return nil, err
		}
		s.deliverPending()
		stop, err := s.d.Continue(s.onInternal)
		if err != nil {
			return nil, err
		}
		return s.stopRecords(token, stop), nil

	case "-exec-step":
		if err := s.need(); err != nil {
			return nil, err
		}
		s.deliverPending()
		stop, err := s.d.StepLine(s.onInternal)
		if err != nil {
			return nil, err
		}
		return s.stopRecords(token, stop), nil

	case "-exec-next":
		if err := s.need(); err != nil {
			return nil, err
		}
		s.deliverPending()
		stop, err := s.d.NextLine(s.onInternal)
		if err != nil {
			return nil, err
		}
		return s.stopRecords(token, stop), nil

	case "-exec-finish":
		if err := s.need(); err != nil {
			return nil, err
		}
		s.deliverPending()
		stop, err := s.d.Finish(s.onInternal)
		if err != nil {
			return nil, err
		}
		return s.stopRecords(token, stop), nil

	case "-break-insert":
		return s.breakInsert(token, args)

	case "-break-delete":
		if err := s.need(); err != nil {
			return nil, err
		}
		for _, a := range args {
			id, err := strconv.Atoi(a)
			if err != nil {
				return nil, fmt.Errorf("bad breakpoint id %q", a)
			}
			s.d.RemoveBreakpoint(id)
			s.d.RemoveWatch(id)
		}
		return []Record{doneRec(token)}, nil

	case "-break-watch":
		return s.breakWatch(token, args)

	case "-stack-list-frames":
		if err := s.need(); err != nil {
			return nil, err
		}
		var frames List
		for i, fr := range s.d.Unwind() {
			frames = append(frames, Tuple{
				{Var: "level", Val: StringVal(strconv.Itoa(i))},
				{Var: "func", Val: StringVal(fr.Fn.Name)},
				{Var: "line", Val: StringVal(strconv.Itoa(s.prog.LineAt(fr.PC)))},
				{Var: "addr", Val: StringVal(fmt.Sprintf("%#x", fr.PC))},
				{Var: "fp", Val: StringVal(fmt.Sprintf("%#x", fr.FP))},
			})
		}
		return []Record{doneRec(token, Result{Var: "stack", Val: frames})}, nil

	case "-et-inspect":
		if err := s.need(); err != nil {
			return nil, err
		}
		r := inspectReplies.Get().(*inspectReply)
		r.state = s.d.State().AppendJSON(r.state[:0])
		// The codec's bytes cross as they stand, behind a length prefix:
		// the codec escapes every control byte, so they hold no line end.
		r.res = [2]Result{
			{Var: "state", Val: RawVal(r.state)},
			{Var: "version", Val: StringVal(strconv.FormatUint(s.d.DataVersion(), 10))},
		}
		r.rec[0] = doneRec(token, r.res[:]...)
		s.lent = r
		return r.rec[:], nil

	case "-data-watch-version":
		if err := s.need(); err != nil {
			return nil, err
		}
		wv := s.d.WatchVersions()
		ids := make([]int, 0, len(wv))
		for id := range wv {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var watches List
		for _, id := range ids {
			watches = append(watches, Tuple{
				{Var: "number", Val: StringVal(strconv.Itoa(id))},
				{Var: "version", Val: StringVal(strconv.FormatUint(wv[id], 10))},
			})
		}
		return []Record{doneRec(token,
			Result{Var: "version", Val: StringVal(strconv.FormatUint(s.d.DataVersion(), 10))},
			Result{Var: "watch-versions", Val: watches},
			Result{Var: "addr", Val: StringVal(hexAddr(s.d.Machine().PC()))},
		)}, nil

	case "-et-heap-blocks":
		var blocks List
		for addr, size := range s.heapMap {
			blocks = append(blocks, Tuple{
				{Var: "addr", Val: StringVal(strconv.FormatUint(addr, 10))},
				{Var: "size", Val: StringVal(strconv.FormatUint(size, 10))},
			})
		}
		return []Record{doneRec(token, Result{Var: "blocks", Val: blocks})}, nil

	case "-data-list-register-values":
		if err := s.need(); err != nil {
			return nil, err
		}
		names := isa.RegNames()
		regs := s.d.Machine().Registers()
		var vals List
		for i, n := range names {
			vals = append(vals, Tuple{
				{Var: "number", Val: StringVal(strconv.Itoa(i))},
				{Var: "name", Val: StringVal(n)},
				{Var: "value", Val: StringVal(strconv.FormatUint(regs[i], 10))},
			})
		}
		vals = append(vals, Tuple{
			{Var: "number", Val: StringVal("32")},
			{Var: "name", Val: StringVal("pc")},
			{Var: "value", Val: StringVal(strconv.FormatUint(s.d.Machine().PC(), 10))},
		})
		return []Record{doneRec(token, Result{Var: "register-values", Val: vals})}, nil

	case "-data-read-memory":
		if err := s.need(); err != nil {
			return nil, err
		}
		if len(args) != 2 {
			return nil, fmt.Errorf("usage: -data-read-memory ADDR SIZE")
		}
		addr, err := strconv.ParseUint(args[0], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad address %q", args[0])
		}
		size, err := strconv.ParseUint(args[1], 0, 64)
		if err != nil || size > 1<<20 {
			return nil, fmt.Errorf("bad size %q", args[1])
		}
		mem, err := s.d.Machine().ReadMem(addr, size)
		if err != nil {
			return nil, err
		}
		return []Record{doneRec(token, Result{Var: "memory", Val: StringVal(hex.EncodeToString(mem))})}, nil

	case "-data-disassemble":
		if err := s.need(); err != nil {
			return nil, err
		}
		if len(args) != 1 {
			return nil, fmt.Errorf("usage: -data-disassemble FUNC")
		}
		fn := s.prog.FuncByName(args[0])
		if fn == nil {
			return nil, fmt.Errorf("no function %q", args[0])
		}
		var insns List
		for _, dl := range s.prog.Disassemble(fn.Entry, fn.End) {
			insns = append(insns, Tuple{
				{Var: "address", Val: StringVal(fmt.Sprintf("%#x", dl.PC))},
				{Var: "inst", Val: StringVal(dl.Text)},
			})
		}
		return []Record{doneRec(token, Result{Var: "asm_insns", Val: insns})}, nil

	case "-et-segments":
		if err := s.need(); err != nil {
			return nil, err
		}
		var segs List
		for _, sg := range s.d.Machine().Segments() {
			segs = append(segs, Tuple{
				{Var: "name", Val: StringVal(sg.Name)},
				{Var: "start", Val: StringVal(strconv.FormatUint(sg.Start, 10))},
				{Var: "size", Val: StringVal(strconv.FormatUint(sg.Size, 10))},
			})
		}
		return []Record{doneRec(token, Result{Var: "segments", Val: segs})}, nil

	case "-et-source":
		if s.prog == nil {
			return nil, fmt.Errorf("no program loaded")
		}
		return []Record{doneRec(token,
			Result{Var: "file", Val: StringVal(s.prog.SourceFile)},
			Result{Var: "source", Val: StringVal(s.prog.Source)},
		)}, nil

	case "-et-last-line":
		if err := s.need(); err != nil {
			return nil, err
		}
		return []Record{doneRec(token,
			Result{Var: "line", Val: StringVal(strconv.Itoa(s.d.LastLine()))},
		)}, nil

	case "-list-features":
		return []Record{doneRec(token, Result{Var: "features", Val: List{
			StringVal("et-inspect"), StringVal("et-maxdepth"),
			StringVal("et-heap-track"), StringVal("et-segments"),
			StringVal("et-data-watch-version"),
			StringVal("et-exec-interrupt"), StringVal("et-budget"),
			StringVal("et-break-condition"),
		}})}, nil
	}
	return nil, fmt.Errorf("undefined MI command: %s", op)
}

// breakInsert handles -break-insert [-t] [-c EXPR] [-i N] [--maxdepth N]
// (LINE | *ADDR | --function NAME | --exit NAME).
func (s *Server) breakInsert(token string, args []string) ([]Record, error) {
	if err := s.need(); err != nil {
		return nil, err
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
				return nil, fmt.Errorf("-c needs a condition")
			}
			cond = args[i]
		case "-i":
			i++
			if i >= len(args) {
				return nil, fmt.Errorf("-i needs a count")
			}
			v, err := strconv.Atoi(args[i])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad ignore count %q", args[i])
			}
			ignore = v
		case "--maxdepth":
			i++
			if i >= len(args) {
				return nil, fmt.Errorf("--maxdepth needs a value")
			}
			v, err := strconv.Atoi(args[i])
			if err != nil {
				return nil, fmt.Errorf("bad maxdepth %q", args[i])
			}
			maxDepth = v
		case "--function":
			mode = "func"
		case "--exit":
			mode = "exit"
		case "--event":
			i++
			if i >= len(args) {
				return nil, fmt.Errorf("--event needs a kind")
			}
			switch args[i] {
			case query.EventLine, query.EventCall, query.EventReturn:
				event = args[i]
			default:
				return nil, fmt.Errorf("bad event kind %q", args[i])
			}
		default:
			target = args[i]
		}
	}
	var condFn func() bool
	if cond != "" {
		ev := event
		if ev == "" {
			switch mode {
			case "func":
				ev = query.EventCall
			case "exit":
				ev = query.EventReturn
			default:
				ev = query.EventLine
			}
		}
		fn, err := s.compileCond(cond, ev)
		if err != nil {
			return nil, err
		}
		condFn = fn
	}
	if target == "" {
		return nil, fmt.Errorf("-break-insert needs a location")
	}
	var bp *dbg.Breakpoint
	var err error
	switch {
	case strings.HasPrefix(target, "*"):
		addr, perr := strconv.ParseUint(target[1:], 0, 64)
		if perr != nil {
			return nil, fmt.Errorf("bad address %q", target)
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
			return nil, fmt.Errorf("bad line %q", target)
		}
		bp, err = s.d.BreakAtLine(line, maxDepth)
	}
	if err != nil {
		return nil, err
	}
	bp.Temporary = temporary
	bp.Cond = condFn
	bp.IgnoreLeft = ignore
	return []Record{doneRec(token, Result{Var: "bkpt", Val: Tuple{
		{Var: "number", Val: StringVal(strconv.Itoa(bp.ID))},
		{Var: "func", Val: StringVal(bp.Function)},
		{Var: "line", Val: StringVal(strconv.Itoa(bp.Line))},
	}})}, nil
}

// breakWatch handles -break-watch [-c EXPR] [-i N] (NAME | FUNC:NAME |
// *ADDR SIZE).
func (s *Server) breakWatch(token string, args []string) ([]Record, error) {
	if err := s.need(); err != nil {
		return nil, err
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
				return nil, fmt.Errorf("bad ignore count %q", args[1])
			}
			ignore = v
			args = args[2:]
			continue
		}
		break
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("-break-watch needs an expression")
	}
	var condFn func() bool
	if cond != "" {
		fn, err := s.compileCond(cond, query.EventLine)
		if err != nil {
			return nil, err
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
			return nil, fmt.Errorf("usage: -break-watch *ADDR SIZE")
		}
		addr, e1 := strconv.ParseUint(target[1:], 0, 64)
		size, e2 := strconv.ParseUint(args[1], 0, 64)
		if e1 != nil || e2 != nil {
			return nil, fmt.Errorf("bad address/size")
		}
		w = s.d.WatchAddr(target, addr, size)
		ty = isa.IntType()
	case strings.Contains(target, ":"):
		i := strings.Index(target, ":")
		fn, name := target[:i], target[i+1:]
		w, err = s.d.WatchLocal(fn, name)
		if err != nil {
			return nil, err
		}
		ty = s.localType(fn, name)
	default:
		w, err = s.d.WatchGlobal(target, false)
		if err != nil {
			return nil, err
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
	return []Record{doneRec(token, Result{Var: "wpt", Val: Tuple{
		{Var: "number", Val: StringVal(strconv.Itoa(w.ID))},
		{Var: "exp", Val: StringVal(w.Name)},
	}})}, nil
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

// stopRecords renders a debugger stop as MI records: buffered inferior
// output first, then ^running + *stopped (the synchronous condensation of
// GDB's async protocol). A stop that leaves the inferior paused carries the
// machine's data version and program counter, as -data-watch-version
// reports them, so a client can tell from the stop alone whether memory
// changed since an earlier pause: neither moves until the next execution
// command.
func (s *Server) stopRecords(token string, stop dbg.Stop) []Record {
	recs := s.drainOutput()
	recs = append(recs, Record{Kind: ResultRecord, Token: token, Class: "running"})
	st := Record{Kind: AsyncRecord, Class: "stopped", Results: make(Tuple, 0, 10)}
	st.Results = append(st.Results, Result{Var: "reason", Val: StringVal(stop.Reason.String())})
	switch stop.Reason {
	case dbg.StopExited:
		st.Results = append(st.Results,
			Result{Var: "exit-code", Val: StringVal(strconv.Itoa(stop.ExitCode))})
	case dbg.StopFault:
		st.Results = append(st.Results,
			Result{Var: "signal-meaning", Val: StringVal(stop.Fault)},
			Result{Var: "exit-code", Val: StringVal(strconv.Itoa(stop.ExitCode))})
	default:
		st.Results = append(st.Results,
			Result{Var: "line", Val: StringVal(strconv.Itoa(stop.Line))},
			Result{Var: "func", Val: StringVal(stop.Function)},
			Result{Var: "depth", Val: StringVal(strconv.Itoa(s.d.Depth()))},
			Result{Var: "version", Val: StringVal(strconv.FormatUint(s.d.DataVersion(), 10))},
			Result{Var: "addr", Val: StringVal(hexAddr(s.d.Machine().PC()))})
		if stop.Detail != "" {
			st.Results = append(st.Results,
				Result{Var: "detail", Val: StringVal(stop.Detail)})
		}
		if stop.Reason == dbg.StopBreakpoint {
			st.Results = append(st.Results,
				Result{Var: "bkptno", Val: StringVal(strconv.Itoa(stop.Breakpoint))})
		}
		if stop.Watch != nil {
			ty := s.watchTypes[stop.Watch.ID]
			st.Results = append(st.Results,
				Result{Var: "wpt", Val: Tuple{
					{Var: "number", Val: StringVal(strconv.Itoa(stop.Watch.ID))},
					{Var: "exp", Val: StringVal(stop.Watch.Name)},
				}},
				Result{Var: "value", Val: Tuple{
					{Var: "old", Val: StringVal(renderRaw(stop.Watch.Old, ty))},
					{Var: "new", Val: StringVal(renderRaw(stop.Watch.New, ty))},
				}})
		}
	}
	return append(recs, st)
}

// hexAddr writes an address as %#x does.
func hexAddr(a uint64) string {
	var b [18]byte
	return string(strconv.AppendUint(append(b[:0], "0x"...), a, 16))
}

// renderRaw renders watched raw bytes according to the declared type.
func renderRaw(b []byte, ty *isa.TypeInfo) string {
	v := leBytes(b)
	if ty == nil {
		return strconv.FormatUint(v, 10)
	}
	switch ty.Kind {
	case isa.KChar:
		if len(b) > 0 {
			return strconv.FormatInt(int64(int8(b[0])), 10)
		}
		return "0"
	case isa.KDouble:
		return strconv.FormatFloat(float64frombits(v), 'g', -1, 64)
	case isa.KPtr:
		return fmt.Sprintf("%#x", v)
	default:
		return strconv.FormatInt(int64(v), 10)
	}
}
