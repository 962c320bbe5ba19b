package remote

import (
	"encoding/json"
	"strings"
	"time"

	"easytracker/internal/core"
)

// Protocol vocabulary. One Request frame carries one operation; the server
// answers every request with exactly one Response frame carrying the same
// ID. Requests on one session execute in arrival order on the session's own
// goroutine — except OpInterrupt, which is handled out of band so it can
// land while a control command is still running.
const (
	// Session lifecycle.
	OpHello     = "hello"
	OpLoad      = "load"
	OpTerminate = "terminate"

	// Control (execution-resuming; responses carry a fresh Status).
	OpStart  = "start"
	OpResume = "resume"
	OpStep   = "step"
	OpNext   = "next"

	// Arming.
	OpBreakLine = "break-line"
	OpBreakFunc = "break-func"
	OpTrack     = "track"
	OpWatch     = "watch"

	// Server-side pause filtering: a subscription expression makes Resume
	// loop on the server until a pause matches (or the inferior exits), so
	// non-matching pauses never cross the socket.
	OpSubscribe = "subscribe"

	// Inspection.
	OpState    = "state"
	OpSource   = "source"
	OpStats    = "stats"
	OpRegs     = "registers"
	OpReadMem  = "read-mem"
	OpSegments = "segments"
	OpHeap     = "heap-blocks"

	// Time travel (backends advertising TimeTraveler/ReverseWatch). The
	// reverse ops move the session's replay cursor; like forward control
	// ops their responses carry a fresh Status, whose TTPos/TTLen fields
	// keep the client's cursor cache (and its reconnect journal) current.
	OpStepBack   = "step-back"
	OpResumeBack = "resume-back"
	OpNextBack   = "next-back"
	OpSeek       = "seek"
	OpLastChange = "last-change"

	// Out-of-band supervision.
	OpInterrupt = "interrupt"

	// Liveness. OpPing is answered inline by the connection reader — like
	// OpInterrupt it never queues behind the executor, so a beat proves the
	// peer and the wire are alive even while a long Resume runs. Pings do
	// not count as activity for idle eviction: a client that only pings is
	// keeping the socket warm, not using the session.
	OpPing = "ping"
)

// LoadSpec is the serializable subset of core.LoadConfig: everything a load
// option can say except the I/O streams, which stay client-side (the server
// buffers inferior output and ships deltas back in Status).
type LoadSpec struct {
	Args      []string     `json:"args,omitempty"`
	Source    string       `json:"source,omitempty"`
	Stdin     string       `json:"stdin,omitempty"`
	TrackHeap bool         `json:"track_heap,omitempty"`
	CmdNs     int64        `json:"cmd_timeout_ns,omitempty"`
	ExecNs    int64        `json:"exec_timeout_ns,omitempty"`
	Budgets   core.Budgets `json:"budgets,omitempty"`
	Obs       bool         `json:"obs,omitempty"`
	ObsEvents int          `json:"obs_events,omitempty"`
	// WantStdout/WantStderr ask the server to capture the stream and ship
	// deltas back; without them inferior output is discarded server-side.
	WantStdout bool `json:"want_stdout,omitempty"`
	WantStderr bool `json:"want_stderr,omitempty"`
	// Recording asks the backend to record execution for time travel
	// (core.WithRecording); RecordInterval is the checkpoint interval hint
	// (0 = adaptive).
	Recording      bool `json:"recording,omitempty"`
	RecordInterval int  `json:"record_interval,omitempty"`
}

// Request is one client frame.
type Request struct {
	ID uint64 `json:"id"`
	Op string `json:"op"`

	// OpHello.
	Kind string `json:"kind,omitempty"`

	// OpLoad.
	Path string    `json:"path,omitempty"`
	Load *LoadSpec `json:"load,omitempty"`

	// Arming and inspection operands.
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	Func     string `json:"func,omitempty"`
	Var      string `json:"var,omitempty"`
	MaxDepth int    `json:"max_depth,omitempty"`
	Addr     uint64 `json:"addr,omitempty"`
	Size     int    `json:"size,omitempty"`

	// Probe condition operands (arming ops) and the subscription
	// expression (OpSubscribe; empty clears the subscription).
	Cond    string `json:"cond,omitempty"`
	Ignore  int    `json:"ignore,omitempty"`
	OneShot bool   `json:"one_shot,omitempty"`

	// OpSeek operand: the absolute recorded step to seek to.
	Step int `json:"step,omitempty"`

	// WantState (control ops) asks for the State of the pause the op
	// reaches in the response, sparing an OpState round trip. The client
	// sets it when it read the State at the pause it is leaving; a response
	// that brings no State (a failed op, or a backend that could not
	// produce one) leaves the client to ask with OpState.
	WantState bool `json:"want_state,omitempty"`
}

// Status is the tracker's observable condition after an operation: the
// pause reason (core's pause codec), termination state, source position and
// any inferior output produced since the previous response. Every response
// on a loaded session carries one, so the client needs no extra round trips
// for PauseReason/ExitCode/Position/LastLine.
type Status struct {
	Reason   json.RawMessage `json:"reason,omitempty"`
	Exited   bool            `json:"exited,omitempty"`
	ExitCode int             `json:"exit_code,omitempty"`
	File     string          `json:"file,omitempty"`
	Line     int             `json:"line,omitempty"`
	LastLine int             `json:"last_line,omitempty"`
	Stdout   string          `json:"stdout,omitempty"`
	Stderr   string          `json:"stderr,omitempty"`
	// TTPos/TTLen mirror the backend's time-travel cursor when it
	// advertises TimeTraveler and has recorded steps. TTPos carries
	// Pos()+1, so a recording not yet started (Pos -1) sends 0, which
	// JSON's zero-drop omits; TTLen is Len() verbatim and tells the
	// client both are present. The client journals TTPos for seek replay
	// after a reconnect.
	TTPos int `json:"tt_pos,omitempty"`
	TTLen int `json:"tt_len,omitempty"`
}

// Response is one server frame.
type Response struct {
	ID  uint64          `json:"id"`
	Err *core.ErrorJSON `json:"err,omitempty"`

	Status *Status `json:"status,omitempty"`

	// OpHello.
	Session uint64              `json:"session,omitempty"`
	Kind    string              `json:"kind,omitempty"`
	Caps    *core.CapabilitySet `json:"caps,omitempty"`
	// HBNs/HBMiss are the heartbeat contract a server built WithHeartbeat
	// grants every session (hello responses only): the client must send
	// OpPing every HBNs nanoseconds, and each side may declare the other
	// dead after HBMiss consecutive silent intervals. Zero HBNs means
	// heartbeats are off for this session.
	HBNs   int64 `json:"hb_ns,omitempty"`
	HBMiss int   `json:"hb_miss,omitempty"`

	// Inspection payloads. State answers OpState and a control op's
	// WantState; it crosses in the frame's tail (wire.go), never inside
	// the JSON.
	Change *core.VarChange   `json:"change,omitempty"`
	State  json.RawMessage   `json:"-"`
	Lines  []string          `json:"lines,omitempty"`
	Stats  json.RawMessage   `json:"stats,omitempty"`
	Regs   map[string]uint64 `json:"regs,omitempty"`
	Mem    []byte            `json:"mem,omitempty"`
	Segs   []core.Segment    `json:"segs,omitempty"`
	Heap   map[string]uint64 `json:"heap,omitempty"`
}

// probeOps is the arming op of each probe kind, read forwards by the
// client (probeRequest) and backwards by the server (Request.probe).
var probeOps = [...]string{
	core.ProbeLine:  OpBreakLine,
	core.ProbeFunc:  OpBreakFunc,
	core.ProbeWatch: OpWatch,
	core.ProbeTrack: OpTrack,
}

// probeRequest is the arming request that carries p.
func probeRequest(p core.Probe) (*Request, error) {
	if p.Kind < 0 || int(p.Kind) >= len(probeOps) {
		return nil, core.ErrUnsupported
	}
	return &Request{Op: probeOps[p.Kind], File: p.File, Line: p.Line, Func: p.Function,
		Var: p.VarID, MaxDepth: p.MaxDepth, Cond: p.Condition, Ignore: p.IgnoreHits,
		OneShot: p.OneShot}, nil
}

// probe is the probe an arming request carries. Any other op reads as a
// kind past the table, which every tracker's Arm rejects.
func (r *Request) probe() core.Probe {
	k := 0
	for k < len(probeOps) && probeOps[k] != r.Op {
		k++
	}
	return core.Probe{Kind: core.ProbeKind(k), File: r.File, Line: r.Line, Function: r.Func,
		VarID: r.Var, BreakConfig: core.BreakConfig{MaxDepth: r.MaxDepth, Condition: r.Cond,
			IgnoreHits: r.Ignore, OneShot: r.OneShot}}
}

// specFromConfig projects a LoadConfig onto the wire, dropping the stream
// fields (the caller records which streams were requested).
func specFromConfig(c core.LoadConfig) *LoadSpec {
	return &LoadSpec{
		Args:           c.Args,
		Source:         c.Source,
		TrackHeap:      c.TrackHeap,
		CmdNs:          int64(c.CommandTimeout),
		ExecNs:         int64(c.ExecTimeout),
		Budgets:        c.Budgets,
		Obs:            c.Obs.Enabled,
		ObsEvents:      c.Obs.Events,
		WantStdout:     c.Stdout != nil,
		WantStderr:     c.Stderr != nil,
		Recording:      c.Recording,
		RecordInterval: c.RecordInterval,
	}
}

// loadOptions converts a LoadSpec back into load options for the backend
// tracker, with the server-imposed tenant caps folded in: the effective
// execution timeout is the tighter of the client's and the server's, and
// each resource budget is the tighter non-zero bound.
func (s *LoadSpec) loadOptions(caps tenantCaps, stdout, stderr *deltaBuffer, stdin string) []core.LoadOption {
	var opts []core.LoadOption
	if len(s.Args) > 0 {
		opts = append(opts, core.WithArgs(s.Args...))
	}
	if s.Source != "" {
		opts = append(opts, core.WithSource(s.Source))
	}
	if s.TrackHeap {
		opts = append(opts, core.WithHeapTracking())
	}
	if s.Recording && !caps.NoRecording {
		opts = append(opts, core.WithRecording(s.RecordInterval))
	}
	if s.CmdNs > 0 {
		opts = append(opts, core.WithCommandTimeout(time.Duration(s.CmdNs)))
	}
	if d := tighter(time.Duration(s.ExecNs), caps.ExecTimeout); d > 0 {
		opts = append(opts, core.WithExecutionTimeout(d))
	}
	if b := mergeBudgets(s.Budgets, caps.Budgets); b.Any() {
		opts = append(opts, core.WithBudgets(b))
	}
	if s.Obs {
		var oo []core.ObsOption
		if s.ObsEvents > 0 {
			oo = append(oo, core.WithFlightRecorder(s.ObsEvents))
		}
		opts = append(opts, core.WithObservability(oo...))
	}
	if stdout != nil {
		opts = append(opts, core.WithStdout(stdout))
	}
	if stderr != nil {
		opts = append(opts, core.WithStderr(stderr))
	}
	if stdin != "" {
		opts = append(opts, core.WithStdin(strings.NewReader(stdin)))
	}
	return opts
}

// tenantCaps are the server-side per-session resource ceilings; zero fields
// impose no bound.
type tenantCaps struct {
	ExecTimeout time.Duration
	Budgets     core.Budgets
	// NoRecording drops clients' time-travel recording requests: the
	// session loads without a recorder and its load response advertises
	// TimeTravel off, so clients degrade instead of erroring.
	NoRecording bool
}

// mergeBudgets combines the client's requested budgets with the server's
// tenant caps, taking the tighter non-zero bound per resource.
func mergeBudgets(req, ceiling core.Budgets) core.Budgets {
	return core.Budgets{
		MaxSteps:        tighter(req.MaxSteps, ceiling.MaxSteps),
		MaxDepth:        tighter(req.MaxDepth, ceiling.MaxDepth),
		MaxHeapObjects:  tighter(req.MaxHeapObjects, ceiling.MaxHeapObjects),
		MaxInstructions: tighter(req.MaxInstructions, ceiling.MaxInstructions),
	}
}

// tighter picks the smaller positive bound; a zero or negative bound
// imposes none.
func tighter[T time.Duration | int | int64 | uint64](a, b T) T {
	switch {
	case a <= 0:
		return b
	case b <= 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}
