package core

import (
	"errors"
	"strings"
	"testing"
)

func sampleStack() *Frame {
	main := &Frame{
		Name: "main", Depth: 0, File: "p.c", Line: 20,
		Vars: []*Variable{{Name: "argc", Value: NewInt(1)}},
	}
	f := &Frame{
		Name: "f", Depth: 1, File: "p.c", Line: 7,
		Vars: []*Variable{
			{Name: "x", Value: NewInt(3)},
			{Name: "p", Value: NewRef(NewInt(3))},
		},
		Parent: main,
	}
	return f
}

func TestFrameLookupAndVariables(t *testing.T) {
	f := sampleStack()
	if v := f.Lookup("x"); v == nil || v.Value.String() != "3" {
		t.Errorf("Lookup(x) = %v", v)
	}
	if f.Lookup("nope") != nil {
		t.Error("Lookup found phantom variable")
	}
	m := f.Variables()
	if len(m) != 2 || m["p"] == nil {
		t.Errorf("Variables() = %v", m)
	}
}

func TestFrameStackOrder(t *testing.T) {
	f := sampleStack()
	s := f.Stack()
	if len(s) != 2 || s[0].Name != "f" || s[1].Name != "main" {
		t.Errorf("Stack() order wrong: %v", s)
	}
}

func TestFrameStrings(t *testing.T) {
	f := sampleStack()
	if got := f.String(); got != "f at p.c:7 (depth 1)" {
		t.Errorf("String() = %q", got)
	}
	bt := f.Backtrace()
	for _, want := range []string{"#1 f at p.c:7", "#0 main at p.c:20", "x = 3", "argc = 1"} {
		if !strings.Contains(bt, want) {
			t.Errorf("Backtrace missing %q in:\n%s", want, bt)
		}
	}
	if got := f.Vars[0].String(); got != "x = 3" {
		t.Errorf("Variable.String() = %q", got)
	}
}

func TestFrameEqual(t *testing.T) {
	a, b := sampleStack(), sampleStack()
	if !a.Equal(b) {
		t.Error("identical stacks unequal")
	}
	b.Parent.Line = 21
	if a.Equal(b) {
		t.Error("stacks with different parents equal")
	}
	if a.Equal(nil) {
		t.Error("frame equal to nil")
	}
	var n *Frame
	if !n.Equal(nil) {
		t.Error("nil frame not equal to nil")
	}
	c := sampleStack()
	c.Vars = c.Vars[:1]
	if a.Equal(c) {
		t.Error("stacks with different var counts equal")
	}
}

func TestPauseReasonStrings(t *testing.T) {
	cases := []struct {
		r    PauseReason
		want string
	}{
		{PauseReason{Type: PauseWatch, Variable: "n", Old: NewInt(1), New: NewInt(2), File: "a.py", Line: 3},
			`WATCH n: 1 -> 2 at a.py:3`},
		{PauseReason{Type: PauseCall, Function: "fib", File: "a.py", Line: 1},
			"CALL fib at a.py:1"},
		{PauseReason{Type: PauseReturn, Function: "fib", ReturnValue: NewInt(8), File: "a.py", Line: 4},
			"RETURN fib -> 8 at a.py:4"},
		{PauseReason{Type: PauseBreakpoint, File: "a.py", Line: 9},
			"BREAKPOINT at a.py:9"},
		{PauseReason{Type: PauseBreakpoint, Function: "g", File: "a.py", Line: 9},
			"BREAKPOINT g at a.py:9"},
		{PauseReason{Type: PauseExited, ExitCode: 3}, "EXITED 3"},
		{PauseReason{Type: PauseStep, File: "a.py", Line: 2}, "STEP at a.py:2"},
		{PauseReason{Type: PauseNone}, "NONE"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParsePauseReasonType(t *testing.T) {
	for _, p := range []PauseReasonType{PauseNone, PauseEntry, PauseStep,
		PauseBreakpoint, PauseWatch, PauseCall, PauseReturn, PauseExited} {
		back, err := ParsePauseReasonType(p.String())
		if err != nil || back != p {
			t.Errorf("round trip of %v failed", p)
		}
	}
	if _, err := ParsePauseReasonType("XXX"); err == nil {
		t.Error("ParsePauseReasonType accepted garbage")
	}
}

// TestParseVarRef pins the one variable-reference grammar that watch IDs
// and reverse-watch queries share.
func TestParseVarRef(t *testing.T) {
	cases := []struct{ ref, scope, name string }{
		{"x", "", "x"},
		{"fib:n", "fib", "n"},
		{"::g", "::", "g"},
		{"globals.g", "::", "g"},
		{"_a1", "", "_a1"},
		{"  x ", "", "x"},
		{"\tfib:n\n", "fib", "n"},
		{" ::g", "::", "g"},
		{"globals.g  ", "::", "g"},
		{"π", "", "π"}, // a Unicode letter, as MiniPy and the query lexer read names
		{"::année", "::", "année"},
		{"globals.x٣", "::", "x٣"},
		{"函数:变量", "函数", "变量"},
	}
	for _, c := range cases {
		scope, name, err := ParseVarRef(c.ref)
		if err != nil || scope != c.scope || name != c.name {
			t.Errorf("ParseVarRef(%q) = %q, %q, %v; want %q, %q", c.ref, scope, name, err, c.scope, c.name)
		}
	}
	for _, ref := range []string{"", "  ", "::", "fn:", ":x", "globals.", "a:b:c",
		"1x", "frames[0].locals.x", "x.y", "globals.1x", "fn: x", "٣x", "x+y"} {
		if scope, name, err := ParseVarRef(ref); !errors.Is(err, ErrBadQuery) {
			t.Errorf("ParseVarRef(%q) = %q, %q, %v; want ErrBadQuery", ref, scope, name, err)
		}
	}
}

// TestStateLookup pins the scope rule every snapshot reader shares.
func TestStateLookup(t *testing.T) {
	inner := sampleStack() // f(x, p) called from main(argc)
	outer := &Frame{Name: "f", Depth: 2, Vars: []*Variable{{Name: "y", Value: NewInt(9)}}, Parent: inner}
	st := &State{Frame: outer, Globals: []*Variable{{Name: "x", Value: NewInt(100)}, {Name: "y", Value: NewInt(200)}}}
	cases := []struct {
		scope, name string
		want        int64 // 0: not found
		owner       string
	}{
		{"", "y", 9, "f"},    // the innermost frame first
		{"", "x", 100, ""},   // then the globals, never an outer frame
		{"::", "y", 200, ""}, // globals only
		{"f", "y", 9, "f"},   // the innermost activation of f
		{"f", "x", 0, ""},    // which lacks x: no fallback
		{"main", "argc", 1, "main"},
		{"main", "x", 0, ""},
		{"nosuch", "x", 0, ""},
		{"", "argc", 0, ""},
	}
	for _, c := range cases {
		v, owner, ok := st.Lookup(c.scope, c.name)
		if ok != (c.want != 0) || owner != c.owner || ok && v.Content != c.want {
			t.Errorf("Lookup(%q, %q) = %v, %q, %v; want %d, %q", c.scope, c.name, v, owner, ok, c.want, c.owner)
		}
	}
}

func TestRegistry(t *testing.T) {
	RegisterTracker("test-kind", func() Tracker { return nil })
	defer func() {
		registryMu.Lock()
		delete(registry, "test-kind")
		registryMu.Unlock()
	}()
	if _, err := NewTracker("test-kind"); err != nil {
		t.Errorf("NewTracker(test-kind): %v", err)
	}
	if _, err := NewTracker("no-such"); err == nil {
		t.Error("NewTracker accepted unknown kind")
	}
	found := false
	for _, k := range TrackerKinds() {
		if k == "test-kind" {
			found = true
		}
	}
	if !found {
		t.Errorf("TrackerKinds() = %v missing test-kind", TrackerKinds())
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterTracker("test-kind", func() Tracker { return nil })
}

func TestApplyOptions(t *testing.T) {
	lc := ApplyLoadOptions([]LoadOption{
		WithArgs("a", "b"), WithHeapTracking(), WithSource("src"),
	})
	if len(lc.Args) != 2 || !lc.TrackHeap || lc.Source != "src" {
		t.Errorf("LoadConfig = %+v", lc)
	}
	bc := ApplyBreakOptions([]BreakOption{WithMaxDepth(3)})
	if bc.MaxDepth != 3 {
		t.Errorf("BreakConfig = %+v", bc)
	}
}
