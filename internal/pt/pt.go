// Package pt implements a Python-Tutor-style execution trace format and a
// recorder that generates traces by driving any EasyTracker tracker —
// Section III-E of the paper: EasyTracker can generate full or partial
// (filtered) traces for external visualization front-ends, and a trace can
// in turn be replayed through the Tracker API (internal/tracetracker).
package pt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"easytracker/internal/core"
)

// Step events, following Python Tutor's vocabulary.
const (
	EventStepLine  = "step_line"
	EventCall      = "call"
	EventReturn    = "return"
	EventException = "exception"
	EventFinished  = "finished"
)

// EventOf is the step event of a pause: a tracked call or a function
// breakpoint is a call, a tracked return a return, any other pause a line.
func EventOf(r core.PauseReason) string {
	switch {
	case r.Type == core.PauseCall || r.Type == core.PauseBreakpoint && r.Function != "":
		return EventCall
	case r.Type == core.PauseReturn:
		return EventReturn
	}
	return EventStepLine
}

// Step is one recorded execution point.
type Step struct {
	// Event classifies the step.
	Event string `json:"event"`
	// Line is the next line to execute at this point.
	Line int `json:"line"`
	// Func is the function name for call/return events.
	Func string `json:"func_name,omitempty"`
	// Stdout is the cumulative program output so far (PT convention).
	Stdout string `json:"stdout"`
	// State is the full serialized program state at this point.
	State *core.State `json:"state,omitempty"`
}

// Trace is a recorded execution.
type Trace struct {
	// Code is the program source.
	Code string `json:"code"`
	// File is the program's display name.
	File string `json:"file"`
	// Lang names the inferior language/tracker kind.
	Lang string `json:"lang"`
	// Steps are the recorded execution points.
	Steps []Step `json:"trace"`
	// ExitCode is the program's exit status.
	ExitCode int `json:"exit_code"`
}

// Encode serializes the trace as JSON.
func (t *Trace) Encode() ([]byte, error) {
	return json.MarshalIndent(t, "", " ")
}

// DecodeError reports a truncated or corrupted trace file. Offset is the
// byte position where decoding failed (0 when the underlying decoder does
// not report one), so tools can point at the damage instead of panicking
// or emitting an opaque unmarshal error.
type DecodeError struct {
	// Offset is the byte offset into the trace data where decoding failed.
	Offset int64
	// Err is the underlying decoder error.
	Err error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("pt: bad trace at byte %d: %v", e.Offset, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// Decode parses a serialized trace. Malformed input — including a file
// truncated mid-record — yields a *DecodeError carrying the byte offset of
// the damage.
func Decode(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		var off int64
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			off = syn.Offset
		case errors.As(err, &typ):
			off = typ.Offset
		case errors.Is(err, io.ErrUnexpectedEOF):
			// Truncation detected only at end of input.
			off = int64(len(data))
		}
		return nil, &DecodeError{Offset: off, Err: err}
	}
	return &t, nil
}

// Mode selects what the recorder captures.
type Mode int

const (
	// ModeFullStep records the state after every executed line (a
	// Python-Tutor-style full trace).
	ModeFullStep Mode = iota
	// ModeTracked records only the pauses produced by the configured
	// tracked functions and watches — the paper's partial trace that
	// "focuses on interesting parts of the execution".
	ModeTracked
)

// Options configures Record.
type Options struct {
	Mode Mode
	// TrackFunctions lists functions to track in ModeTracked.
	TrackFunctions []string
	// Watches lists variable identifiers to watch in ModeTracked.
	Watches []string
	// MaxSteps bounds the trace length (default 100000).
	MaxSteps int
	// Lang is recorded in the trace header.
	Lang string
}

// stateProvider is implemented by both built-in trackers for a full
// snapshot in one call.
type stateProvider interface {
	State() (*core.State, error)
}

// snapshot obtains a full state from the tracker.
func snapshot(tr core.Tracker) (*core.State, error) {
	if sp, ok := tr.(stateProvider); ok {
		return sp.State()
	}
	fr, err := tr.CurrentFrame()
	if err != nil {
		return nil, err
	}
	globals, err := tr.GlobalVariables()
	if err != nil {
		return nil, err
	}
	return &core.State{Frame: fr, Globals: globals, Reason: tr.PauseReason()}, nil
}

// Record drives a loaded-but-unstarted tracker to completion and returns
// the trace. The tracker's program output must have been routed to out
// (pass the same strings.Builder given to WithStdout) so cumulative stdout
// can be recorded per step; out may be nil.
func Record(tr core.Tracker, out *strings.Builder, opts Options) (*Trace, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 100000
	}
	lines, err := tr.SourceLines()
	if err != nil {
		return nil, err
	}
	file, _ := tr.Position()

	if err := tr.Start(); err != nil {
		return nil, err
	}
	for _, fn := range opts.TrackFunctions {
		if err := tr.TrackFunction(fn); err != nil {
			return nil, err
		}
	}
	for _, w := range opts.Watches {
		if err := tr.Watch(w); err != nil {
			return nil, err
		}
	}

	trace := &Trace{
		Code: strings.Join(lines, "\n"),
		File: file,
		Lang: opts.Lang,
	}
	stdout := func() string {
		if out == nil {
			return ""
		}
		return out.String()
	}

	record := func() error {
		st, err := snapshot(tr)
		if err != nil {
			return err
		}
		// The tracker's classification is richer than what a snapshot
		// may carry (the MiniGDB tracker classifies raw breakpoint
		// stops into CALL/RETURN client-side).
		st.Reason = tr.PauseReason()
		_, line := tr.Position()
		step := Step{Event: EventOf(st.Reason), Line: line, Stdout: stdout(), State: st}
		if step.Event != EventStepLine {
			step.Func = st.Reason.Function
		}
		trace.Steps = append(trace.Steps, step)
		return nil
	}

	// Entry point state.
	if err := record(); err != nil {
		return nil, err
	}
	for len(trace.Steps) < opts.MaxSteps {
		var err error
		if opts.Mode == ModeFullStep {
			err = tr.Step()
		} else {
			err = tr.Resume()
		}
		if err != nil {
			return nil, err
		}
		if code, done := tr.ExitCode(); done {
			trace.ExitCode = code
			trace.Steps = append(trace.Steps, Step{
				Event: EventFinished, Stdout: stdout(),
			})
			return trace, nil
		}
		if err := record(); err != nil {
			return nil, err
		}
		// A supervision stop (Interrupt(), deadline, or budget trip) ends
		// the recording with a usable partial trace: the last recorded
		// step carries the INTERRUPTED pause state.
		if tr.PauseReason().Type == core.PauseInterrupted {
			return trace, nil
		}
	}
	return nil, fmt.Errorf("pt: trace exceeded %d steps", opts.MaxSteps)
}
