package ttd_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/pytracker"
	"easytracker/internal/ttd"
)

const recProg = `def fib(n):
    pad = 0
    k = 0
    while k < 6:
        pad = pad + k
        k = k + 1
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

x = fib(5)
print(x)
`

func recordV1(t *testing.T, src string, opts pt.Options) *pt.Trace {
	t.Helper()
	tr := pytracker.New()
	var out strings.Builder
	if err := tr.LoadProgram("rec.py", core.WithSource(src), core.WithStdout(&out)); err != nil {
		t.Fatal(err)
	}
	trace, err := pt.Record(tr, &out, opts)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return trace
}

// statesEqual compares two snapshots semantically: frames (deep, ordered),
// globals, and the reason's identifying fields.
func statesEqual(a, b *core.State) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if !a.Frame.Equal(b.Frame) {
		return false
	}
	if len(a.Globals) != len(b.Globals) {
		return false
	}
	for i := range a.Globals {
		if a.Globals[i].Name != b.Globals[i].Name || !a.Globals[i].Value.Equal(b.Globals[i].Value) {
			return false
		}
	}
	ra, rb := a.Reason, b.Reason
	return ra.Type == rb.Type && ra.Line == rb.Line && ra.Function == rb.Function &&
		ra.Variable == rb.Variable && ra.ExitCode == rb.ExitCode
}

func TestFromTraceReconstructsEveryStep(t *testing.T) {
	v1 := recordV1(t, recProg, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	for _, interval := range []int{1, 7, 0} {
		s, err := ttd.FromTrace(v1, interval)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		if s.Len() != len(v1.Steps) {
			t.Fatalf("interval %d: %d steps, want %d", interval, s.Len(), len(v1.Steps))
		}
		for i, step := range v1.Steps {
			if step.State == nil {
				continue
			}
			got, err := s.StateAt(i)
			if err != nil {
				t.Fatalf("interval %d: StateAt(%d): %v", interval, i, err)
			}
			if !statesEqual(step.State, got) {
				t.Fatalf("interval %d: state at step %d diverges from v1 recording", interval, i)
			}
			if s.DepthAt(i) != step.State.Frame.Depth {
				t.Fatalf("interval %d: depth at %d = %d, want %d",
					interval, i, s.DepthAt(i), step.State.Frame.Depth)
			}
			if s.StdoutAt(i) != step.Stdout {
				t.Fatalf("interval %d: stdout at %d = %q, want %q",
					interval, i, s.StdoutAt(i), step.Stdout)
			}
		}
	}
}

// TestSeekByteIdentity is the format's core guarantee: reconstructing a
// step by seeking (cold, random order) yields byte-identical JSON to
// reconstructing it by replaying forwards (memoized, in order).
func TestSeekByteIdentity(t *testing.T) {
	v1 := recordV1(t, recProg, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	s, err := ttd.FromTrace(v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	forward := make([][]byte, s.Len())
	for i := 0; i < s.Len(); i++ {
		st, err := s.StateAt(i)
		if err != nil {
			t.Fatal(err)
		}
		forward[i], err = json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Random-order seeks on the same store (memo mostly missing) and an
	// independently decoded store must reproduce the forward bytes.
	data, err := s.Trace().Encode()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := pt.DecodeV2(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ttd.FromV2(t2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		i := rng.Intn(s.Len())
		for _, store := range []*ttd.Store{s, fresh} {
			st, err := store.StateAt(i)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(forward[i]) {
				t.Fatalf("seek to %d not byte-identical to forward replay", i)
			}
		}
	}
}

func TestAdaptiveCheckpointsAreSublinear(t *testing.T) {
	v1 := recordV1(t, recProg, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	s, err := ttd.FromTrace(v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Len()
	cps := len(s.Trace().Checkpoints)
	// The adaptive policy grows gaps 1, 2, 3, ... so k checkpoints cover
	// ~k^2/2 steps; with slack, k should stay within 3*sqrt(n).
	limit := 3
	for limit*limit < n {
		limit++
	}
	limit *= 3
	if cps > limit {
		t.Errorf("%d checkpoints over %d steps (limit %d): policy not sublinear", cps, n, limit)
	}
	// And the worst-case replay distance stays bounded similarly.
	worst := 0
	for i := 0; i < n; i++ {
		ci := s.Trace().CheckpointAt(i)
		if ci < 0 {
			t.Fatalf("step %d has no checkpoint at or below it", i)
		}
		if d := i - s.Trace().Checkpoints[ci].Step; d > worst {
			worst = d
		}
	}
	if worst > limit {
		t.Errorf("worst replay distance %d over %d steps (limit %d)", worst, n, limit)
	}
}

func TestLastChange(t *testing.T) {
	src := `def bump(v):
    v = v + 10
    return v

a = 1
b = bump(a)
a = 7
print(a + b)
`
	v1 := recordV1(t, src, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	s, err := ttd.FromTrace(v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := s.Len() - 1

	chA, err := s.LastChange("::a", last)
	if err != nil {
		t.Fatalf("::a: %v", err)
	}
	if deref(chA.Val) != "7" {
		t.Errorf("::a last change = %v, want 7", chA.Val)
	}
	if chA.Func != "" || chA.Var != "::a" {
		t.Errorf("::a attribution = %q/%q", chA.Func, chA.Var)
	}

	// Before a's second assignment the last change must be the first one.
	chA1, err := s.LastChange("::a", chA.Step-1)
	if err != nil {
		t.Fatalf("::a earlier: %v", err)
	}
	if deref(chA1.Val) != "1" {
		t.Errorf("::a earlier change = %v, want 1", chA1.Val)
	}
	if chA1.Step >= chA.Step {
		t.Errorf("change steps not ordered: %d then %d", chA1.Step, chA.Step)
	}

	// bump's local: no live activation at the end, so the most recent past
	// activation answers.
	chV, err := s.LastChange("bump:v", last)
	if err != nil {
		t.Fatalf("bump:v: %v", err)
	}
	if deref(chV.Val) != "11" {
		t.Errorf("bump:v last change = %v, want 11", chV.Val)
	}
	if chV.Func != "bump" {
		t.Errorf("bump:v owner = %q", chV.Func)
	}

	if _, err := s.LastChange("::nothing", last); !errors.Is(err, core.ErrUnknownVariable) {
		t.Errorf("unknown variable error = %v", err)
	}
	if _, err := s.LastChange("frames[0].locals.x", last); !errors.Is(err, core.ErrBadQuery) {
		t.Errorf("positional ref error = %v", err)
	}
}

func TestVarAtMatchesStates(t *testing.T) {
	v1 := recordV1(t, recProg, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	s, err := ttd.FromTrace(v1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range v1.Steps {
		if step.State == nil {
			continue
		}
		for _, id := range []string{"n", "k", "::x", "fib:pad"} {
			want := lookupV1(step.State, id)
			scope, name, _ := core.ParseVarRef(id)
			got := s.VarAt(i, scope, name)
			if (want == nil) != (got == nil) {
				t.Fatalf("step %d %s: presence %v vs %v", i, id, want != nil, got != nil)
			}
			if want != nil && !want.Equal(got) {
				t.Fatalf("step %d %s: %s vs %s", i, id, want, got)
			}
		}
	}
}

// deref renders a recorded value, following heap refs (minipy variables
// are refs into the heap).
func deref(v *core.Value) string {
	for v != nil && v.Kind == core.Ref {
		v = v.Deref()
	}
	if v == nil {
		return "<nil>"
	}
	return v.String()
}

// lookupV1 mirrors the replayer's variable resolution on a full state.
func lookupV1(st *core.State, id string) *core.Value {
	fn, name, _ := core.ParseVarRef(id)
	if fn != "" && fn != "::" {
		for fr := st.Frame; fr != nil; fr = fr.Parent {
			if fr.Name == fn {
				if v := fr.Lookup(name); v != nil {
					return v.Value
				}
				return nil
			}
		}
		return nil
	}
	if fn == "" && st.Frame != nil {
		if v := st.Frame.Lookup(name); v != nil {
			return v.Value
		}
	}
	for _, g := range st.Globals {
		if g.Name == name {
			return g.Value
		}
	}
	return nil
}

func TestRecorderLiveMatchesFromTrace(t *testing.T) {
	// Feeding the recorder the same snapshots FromTrace reads must land the
	// same number of steps and reconstruct the same states (Finish mirrors
	// the v1 trailing step).
	v1 := recordV1(t, recProg, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	rec := ttd.NewRecorder(v1.File, v1.Code, v1.Lang, 0)
	prevOut := ""
	for i := range v1.Steps[:len(v1.Steps)-1] {
		st := &v1.Steps[i]
		delta := strings.TrimPrefix(st.Stdout, prevOut)
		prevOut = st.Stdout
		if err := rec.Add(st.Event, st.Line, st.Func, delta, st.State); err != nil {
			t.Fatal(err)
		}
	}
	final := v1.Steps[len(v1.Steps)-1]
	if err := rec.Finish(v1.ExitCode, strings.TrimPrefix(final.Stdout, prevOut), nil); err != nil {
		t.Fatal(err)
	}
	s := rec.Store()
	if s.Len() != len(v1.Steps) {
		t.Fatalf("recorded %d steps, want %d", s.Len(), len(v1.Steps))
	}
	for i, step := range v1.Steps {
		if step.State == nil {
			continue
		}
		got, err := s.StateAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !statesEqual(step.State, got) {
			t.Fatalf("live-recorded state at %d diverges", i)
		}
	}
	if s.StdoutAt(s.Len()-1) != final.Stdout {
		t.Errorf("final stdout %q, want %q", s.StdoutAt(s.Len()-1), final.Stdout)
	}
}
