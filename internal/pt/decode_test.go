package pt_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/pytracker"
)

// encodeSmallTrace records and encodes a short trace to mutilate.
func encodeSmallTrace(t *testing.T) []byte {
	t.Helper()
	trace := recordProg(t, pt.Options{
		Mode: pt.ModeTracked, TrackFunctions: []string{"fib"}, Lang: "minipy",
	})
	data, err := trace.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeTruncatedTrace cuts an encoded trace mid-record, as a killed
// recorder or a full disk would, and checks pt.Decode reports a typed
// *pt.DecodeError with a byte offset instead of panicking or returning an
// opaque unmarshal error.
func TestDecodeTruncatedTrace(t *testing.T) {
	data := encodeSmallTrace(t)
	// Cut inside a step record: truncate just after a "line" key somewhere
	// past the header so the damage is mid-record, not mid-header.
	cut := bytes.Index(data[len(data)/2:], []byte(`"line"`))
	if cut < 0 {
		t.Fatal("no step record found to truncate")
	}
	cut += len(data) / 2
	truncated := data[:cut]

	_, err := pt.Decode(truncated)
	if err == nil {
		t.Fatal("pt.Decode accepted a truncated trace")
	}
	var de *pt.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not a *pt.DecodeError: %v", err, err)
	}
	if de.Offset <= 0 || de.Offset > int64(len(truncated)) {
		t.Errorf("offset = %d, want in (0, %d]", de.Offset, len(truncated))
	}
	if !strings.Contains(err.Error(), "byte") {
		t.Errorf("error %q does not mention the byte offset", err)
	}
	if de.Unwrap() == nil {
		t.Error("pt.DecodeError does not unwrap to the underlying cause")
	}
}

// TestDecodeCorruptedTrace damages a byte in the middle of a trace and
// checks the reported offset points near the corruption.
func TestDecodeCorruptedTrace(t *testing.T) {
	data := encodeSmallTrace(t)
	pos := bytes.Index(data, []byte(`"line":`))
	if pos < 0 {
		t.Fatal("no line field found")
	}
	corrupted := append([]byte(nil), data...)
	// Replace the numeric line value with garbage.
	corrupted[pos+len(`"line":`)+1] = 'x'

	_, err := pt.Decode(corrupted)
	if err == nil {
		t.Fatal("pt.Decode accepted a corrupted trace")
	}
	var de *pt.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not a *pt.DecodeError: %v", err, err)
	}
	if de.Offset < int64(pos) {
		t.Errorf("offset = %d, want >= corruption at %d", de.Offset, pos)
	}
}

// TestRecordStopsOnSupervisionPause checks that a budget trip ends the
// recording with a usable partial trace whose final step carries the
// INTERRUPTED pause, rather than pt.Record spinning to its own step cap.
func TestRecordStopsOnSupervisionPause(t *testing.T) {
	tr := pytracker.New()
	src := "n = 0\nwhile True:\n    n = n + 1\n"
	err := tr.LoadProgram("runaway.py", core.WithSource(src),
		core.WithBudgets(core.Budgets{MaxSteps: 500}))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := pt.Record(tr, nil, pt.Options{Mode: pt.ModeTracked, Lang: "minipy"})
	if err != nil {
		t.Fatalf("record over a tripping budget: %v", err)
	}
	if len(trace.Steps) == 0 {
		t.Fatal("no steps recorded")
	}
	last := trace.Steps[len(trace.Steps)-1]
	if last.State == nil || last.State.Reason.Type != core.PauseInterrupted {
		t.Fatalf("last step = %+v, want an INTERRUPTED state", last)
	}
	if last.State.Reason.Detail != "step-budget" {
		t.Errorf("detail = %q, want step-budget", last.State.Reason.Detail)
	}
}

// TestDecodeNullStateElements embeds States that put null where a frame, a
// variable, a dict entry or a struct field belongs, as a v1 step's state and
// as a v2 checkpoint: both decoders must report a *pt.DecodeError, not
// crash. A well-formed State in the same slot decodes.
func TestDecodeNullStateElements(t *testing.T) {
	v1 := func(state string) []byte {
		return []byte(`{"code":"","file":"p.py","lang":"minipy","trace":[{"event":"step_line","line":1,"stdout":"","state":` + state + `}],"exit_code":0}`)
	}
	v2 := func(state string) []byte {
		return []byte(`{"v":2,"code":"","file":"p.py","lang":"minipy","steps":[{"event":"step_line","line":1}],"checkpoints":[{"step":0,"state":` + state + `}],"exit_code":0}`)
	}
	decoders := []struct {
		name   string
		decode func([]byte) error
		wrap   func(string) []byte
	}{
		{"Decode", func(d []byte) error { _, err := pt.Decode(d); return err }, v1},
		{"DecodeV2", func(d []byte) error { _, err := pt.DecodeV2(d); return err }, v2},
	}
	for _, dec := range decoders {
		if err := dec.decode(dec.wrap(`{"reason":{"type":"STEP","line":1}}`)); err != nil {
			t.Fatalf("%s rejected a well-formed state: %v", dec.name, err)
		}
		for _, state := range []string{
			`{"frames":[null]}`,
			`{"frames":[{"name":"f","depth":0,"vars":[null]}]}`,
			`{"globals":[null]}`,
			`{"globals":[{"name":"d","value":{"id":1,"kind":"DICT","dict":[null]}}]}`,
			`{"globals":[{"name":"s","value":{"id":1,"kind":"STRUCT","struct":[null]}}]}`,
		} {
			err := dec.decode(dec.wrap(state))
			var de *pt.DecodeError
			if !errors.As(err, &de) || !strings.Contains(err.Error(), "core: null") {
				t.Errorf("%s with state %s: err = %v, want a *pt.DecodeError for the null element", dec.name, state, err)
			}
		}
	}
}
