package pt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"easytracker/internal/core"
)

// Trace format v2 — the delta-encoded omniscient trace. Where v0/v1 record a
// full serialized state per step (O(n·|state|) bytes and O(n) seek), v2
// records per-step *state deltas* — which variables were written, which
// frames pushed or popped, which lines advanced — plus periodic full-state
// checkpoints, so reconstructing the state at step i costs decoding the
// nearest checkpoint at or below i and applying at most `interval` deltas.
// With interval ≈ √n both the checkpoint overhead and the seek cost are
// O(√n). v0/v1 traces keep decoding unchanged through Decode; SniffVersion
// routes a serialized trace to the right decoder.
//
// The format is deliberately JSON end to end (like v1): checkpoint states
// are embedded as raw State JSON so each reconstruction decodes a fresh
// value graph — a reconstructed state is never a view into a shared decoded
// base, so retained states can never be retroactively rewritten by a later
// seek. Values written by one step are encoded through one shared backref
// table (core.ValueList), preserving aliasing and cycles among them.

// V2Version is the version discriminator carried in the "v" field of a
// serialized v2 trace. v0/v1 traces have no "v" field.
const V2Version = 2

// FramePush describes one frame entering the stack in a step.
type FramePush struct {
	// Name is the function name of the new frame.
	Name string `json:"name"`
	// Depth is the frame's depth (entry frame = 0).
	Depth int `json:"depth"`
	// File and Line locate the frame at push time.
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	// PC is the program counter for compiled inferiors.
	PC uint64 `json:"pc,omitempty"`
}

// FrameLine advances the source position of one live frame.
type FrameLine struct {
	// Depth identifies the frame.
	Depth int `json:"depth"`
	// Line is the frame's new current line.
	Line int `json:"line"`
	// PC is the frame's new program counter (compiled inferiors).
	PC uint64 `json:"pc,omitempty"`
}

// VarSet writes one variable. F is the depth of the owning frame, or -1 for
// a global. V indexes the step's Vals table.
type VarSet struct {
	F    int    `json:"f"`
	Name string `json:"name"`
	V    int    `json:"v"`
}

// VarDel removes one variable (it went out of scope or was deleted). F is
// the depth of the owning frame, or -1 for a global.
type VarDel struct {
	F    int    `json:"f"`
	Name string `json:"name"`
}

// Delta is the state change of one step relative to the previous step: pop
// then push frames, advance frame lines, then apply variable writes and
// deletions. Vals holds the written values with one shared backref table.
type Delta struct {
	// Pop removes the innermost Pop frames.
	Pop int `json:"pop,omitempty"`
	// Push adds frames (outermost of the pushed group first).
	Push []FramePush `json:"push,omitempty"`
	// Lines advances the current line of live frames.
	Lines []FrameLine `json:"lines,omitempty"`
	// Sets writes variables; values index into Vals.
	Sets []VarSet `json:"sets,omitempty"`
	// Dels removes variables.
	Dels []VarDel `json:"dels,omitempty"`
	// Vals is the step's value table.
	Vals core.ValueList `json:"vals,omitempty"`
}

// StepV2 is one recorded execution point of a v2 trace.
type StepV2 struct {
	// Event classifies the step (EventStepLine, EventCall, ...).
	Event string `json:"event"`
	// Line is the next line to execute at this point.
	Line int `json:"line"`
	// Func is the innermost function at this point.
	Func string `json:"func,omitempty"`
	// Out is the program output produced by this step — a delta, unlike
	// v1's cumulative Stdout, so total trace size stays linear in output.
	Out string `json:"out,omitempty"`
	// Delta is the state change relative to the previous step; nil means
	// no change (bookkeeping steps such as "finished").
	Delta *Delta `json:"delta,omitempty"`
	// Reason is the recorded pause reason (core's pause codec), applied to
	// the reconstructed state at this step.
	Reason json.RawMessage `json:"reason,omitempty"`
}

// Checkpoint is a full serialized state anchored at one step. It is kept as
// raw JSON and decoded fresh on every reconstruction that starts from it.
type Checkpoint struct {
	// Step is the step index the state belongs to.
	Step int `json:"step"`
	// State is the core.State JSON of that step.
	State json.RawMessage `json:"state"`
}

// TraceV2 is a delta-encoded recorded execution.
type TraceV2 struct {
	// V is the format version (V2Version).
	V int `json:"v"`
	// Code is the program source.
	Code string `json:"code"`
	// File is the program's display name.
	File string `json:"file"`
	// Lang names the inferior language/tracker kind.
	Lang string `json:"lang"`
	// Interval is the checkpoint interval the recorder used; 0 means the
	// adaptive policy (informational — Checkpoints carry their own steps).
	Interval int `json:"interval,omitempty"`
	// Steps are the recorded execution points.
	Steps []StepV2 `json:"steps"`
	// Checkpoints are the full-state anchors, ascending by Step.
	Checkpoints []Checkpoint `json:"checkpoints,omitempty"`
	// ExitCode is the program's exit status.
	ExitCode int `json:"exit_code"`
}

// Encode serializes the trace as JSON.
func (t *TraceV2) Encode() ([]byte, error) {
	return json.MarshalIndent(t, "", " ")
}

// SniffVersion inspects serialized trace data and reports its format
// version: V2Version for a v2 trace, 0 for the v0/v1 full-state format (or
// for data that is not a trace at all — the v0/v1 decoder then reports the
// damage precisely).
func SniffVersion(data []byte) int {
	var probe struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return 0
	}
	return probe.V
}

// decodeOffset extracts the byte offset from a JSON decoding error.
func decodeOffset(data []byte, err error) int64 {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		return syn.Offset
	case errors.As(err, &typ):
		return typ.Offset
	case errors.Is(err, io.ErrUnexpectedEOF):
		return int64(len(data))
	}
	return 0
}

// DecodeV2 parses a serialized v2 trace and validates its structure: the
// version discriminator, checkpoint anchors (in range, strictly ascending,
// decodable states), and every delta's value references. Malformed input —
// torn frames, bad checkpoint refs, a delta indexing past its value table —
// yields a *DecodeError. Structural validation against the frame stack
// (pops against missing bases, writes into dead frames) is the trace
// walker's job; see the ttd package.
func DecodeV2(data []byte) (*TraceV2, error) {
	var t TraceV2
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, &DecodeError{Offset: decodeOffset(data, err), Err: err}
	}
	if t.V != V2Version {
		return nil, &DecodeError{Err: fmt.Errorf("pt: unsupported trace version %d", t.V)}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks the trace's internal references without reconstructing
// any state. It is called by DecodeV2 and by loaders of in-memory traces.
func (t *TraceV2) Validate() error {
	prevCP := -1
	for i := range t.Checkpoints {
		cp := &t.Checkpoints[i]
		if cp.Step < 0 || cp.Step >= len(t.Steps) {
			return &DecodeError{Err: fmt.Errorf("pt: checkpoint %d anchored at step %d of %d", i, cp.Step, len(t.Steps))}
		}
		if cp.Step <= prevCP {
			return &DecodeError{Err: fmt.Errorf("pt: checkpoint %d at step %d not after previous at %d", i, cp.Step, prevCP)}
		}
		prevCP = cp.Step
		var st core.State
		if err := st.UnmarshalJSON(cp.State); err != nil {
			return &DecodeError{Err: fmt.Errorf("pt: checkpoint %d state: %w", i, err)}
		}
	}
	for i := range t.Steps {
		d := t.Steps[i].Delta
		if d == nil {
			continue
		}
		if d.Pop < 0 {
			return &DecodeError{Err: fmt.Errorf("pt: step %d pops %d frames", i, d.Pop)}
		}
		for _, s := range d.Sets {
			if s.V < 0 || s.V >= len(d.Vals) {
				return &DecodeError{Err: fmt.Errorf("pt: step %d sets %q from value %d of %d", i, s.Name, s.V, len(d.Vals))}
			}
			if s.F < -1 {
				return &DecodeError{Err: fmt.Errorf("pt: step %d sets %q in frame depth %d", i, s.Name, s.F)}
			}
		}
		for _, del := range d.Dels {
			if del.F < -1 {
				return &DecodeError{Err: fmt.Errorf("pt: step %d deletes %q in frame depth %d", i, del.Name, del.F)}
			}
		}
		if len(t.Steps[i].Reason) > 0 {
			if _, err := core.DecodePauseReasonJSON(t.Steps[i].Reason); err != nil {
				return &DecodeError{Err: fmt.Errorf("pt: step %d reason: %w", i, err)}
			}
		}
	}
	return nil
}

// CheckpointAt returns the index (into Checkpoints) of the nearest
// checkpoint anchored at or below step, or -1 when reconstruction must
// start from the empty pre-execution state.
func (t *TraceV2) CheckpointAt(step int) int {
	lo, hi, best := 0, len(t.Checkpoints)-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if t.Checkpoints[mid].Step <= step {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}
