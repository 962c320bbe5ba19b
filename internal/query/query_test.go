package query

import (
	"errors"
	"strings"
	"testing"

	"easytracker/internal/core"
)

// fakeView is a test EventView with canned fields and variables. Variables
// are keyed "scope\x00name"; frames index scoped locals.
type fakeView struct {
	line, depth     int
	event, fn, file string
	vars            map[string]Scalar
	frames          []map[string]Scalar
}

func (v *fakeView) Line() int        { return v.line }
func (v *fakeView) Depth() int       { return v.depth }
func (v *fakeView) Event() string    { return v.event }
func (v *fakeView) Function() string { return v.fn }
func (v *fakeView) File() string     { return v.file }

func (v *fakeView) Var(scope, name string) Scalar {
	if s, ok := v.vars[scope+"\x00"+name]; ok {
		return s
	}
	if scope == "" {
		if s, ok := v.vars["::\x00"+name]; ok {
			return s
		}
	}
	return Missing
}

func (v *fakeView) FrameVar(idx int, name string) Scalar {
	if idx < 0 || idx >= len(v.frames) {
		return Missing
	}
	if s, ok := v.frames[idx][name]; ok {
		return s
	}
	return Missing
}

func testView() *fakeView {
	return &fakeView{
		line: 42, depth: 3, event: EventLine, fn: "fib", file: "prog.py",
		vars: map[string]Scalar{
			"\x00n":     IntScalar(7),
			"\x00pi":    FloatScalar(3.5),
			"\x00name":  StrScalar("abc"),
			"\x00flag":  BoolScalar(true),
			"\x00xs":    {Kind: KList, I: 4},
			"\x00nil":   {Kind: KNone},
			"::\x00g":   IntScalar(100),
			"fib\x00n":  IntScalar(7),
			"main\x00n": IntScalar(0),
			"\x00line":  IntScalar(999), // shadowed by the typed field
		},
		frames: []map[string]Scalar{
			{"n": IntScalar(7)},
			{"n": IntScalar(8)},
		},
	}
}

func TestEval(t *testing.T) {
	v := testView()
	cases := []struct {
		expr string
		want bool
	}{
		{"line == 42", true},
		{"line == 41", false},
		{"line != 41", true},
		{"line >= 42 && line <= 42", true},
		{"depth < 5", true},
		{"depth > 5 || line == 42", true},
		{`event == "line"`, true},
		{`event == "call"`, false},
		{`function == "fib"`, true},
		{`file == "prog.py"`, true},
		{"n > 6", true},
		{"n > 7", false},
		{"n % 2 == 1", true},
		{"n * 2 == 14", true},
		{"n + 1 == 8", true},
		{"-n == -7", true},
		{"pi > 3 && pi < 4", true},
		{"pi + n == 10.5", true},
		{`name == "abc"`, true},
		{`name < "abd"`, true},
		{"flag", true},
		{"!flag", false},
		{"flag == true", true},
		{"nil == none", true},
		{"nil == None", true},
		// Missing semantics: undefined vars satisfy no comparison, and
		// != is also false; exists() tests definedness.
		{"zzz == 1", false},
		{"zzz != 1", false},
		{"zzz == zzz", false},
		{"exists(n)", true},
		{"exists(zzz)", false},
		{"!exists(zzz)", true},
		// Containers reduce to length; len works on strings too.
		{"len(xs) == 4", true},
		{"len(name) == 3", true},
		{"xs", true}, // non-empty list is truthy
		// Scoped references.
		{"::g == 100", true},
		{"globals.g == 100", true},
		{"fib:n == 7", true},
		{"main:n == 0", true},
		{"other:n == 7", false},
		{"frames[0].locals.n == 7", true},
		{"frames[1].locals.n == 8", true},
		{"frames[9].locals.n == 7", false},
		// Field names shadow variables; explicit scope reaches through.
		{"line == 999", false},
		{"frames[0].locals.line == 999", false}, // not a frame local here
		// Arithmetic edge cases: div by zero is Missing, so never matches.
		{"n / 0 == 0", false},
		{"n % 0 == 0", false},
		{"7 / 2 == 3", true}, // int division truncates
		{"7 / 2.0 == 3.5", true},
		// Short circuits.
		{"false && zzz / 0 == 0", false},
		{"true || zzz / 0 == 0", true},
		{"exists(zzz) && zzz > 0", false},
	}
	for _, tc := range cases {
		prog, err := Compile(tc.expr)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.expr, err)
			continue
		}
		if got := prog.Match(v); got != tc.want {
			t.Errorf("Match(%q) = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"line ==",
		"(line == 1",
		"line = 1",
		"1 < 2 < 3",
		"@",
		`"unterminated`,
		"1.e3",
		"exists(1)",
		"exists(line)",
		"frames[x].locals.n",
		"frames[0].globals.n",
		"frames[0].locals.",
		"globals.",
		"fn:",
		"::",
		"line == \"main\"",  // int vs str equality
		"function > 3",      // str vs int ordering
		"line + \"x\" == 1", // arithmetic on a string
		"-function == 1",    // negating a string
		"line == 1 extra",   // trailing tokens
		"a | count",         // pipe is not an expression operator
	}
	for _, src := range bad {
		_, err := Compile(src)
		if err == nil {
			t.Errorf("Compile(%q): expected error", src)
			continue
		}
		if !errors.Is(err, core.ErrBadQuery) {
			t.Errorf("Compile(%q): error %v does not unwrap to ErrBadQuery", src, err)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Compile("line == @")
	if err == nil {
		t.Fatal("expected error")
	}
	var qe *Error
	if !errors.As(err, &qe) {
		t.Fatalf("error %T is not *Error", err)
	}
	if qe.Pos != 8 {
		t.Errorf("Pos = %d, want 8", qe.Pos)
	}
	if !strings.Contains(err.Error(), "position 8") && !strings.Contains(err.Error(), "8") {
		t.Errorf("error %q does not mention the position", err)
	}
}

// TestUnexpectedRuneNamed: a character outside the grammar is named whole,
// not by its first UTF-8 byte, and at its byte offset.
func TestUnexpectedRuneNamed(t *testing.T) {
	for src, want := range map[string]string{
		"x² >= 0": `unexpected character '²' (at offset 1)`,
		"∑ > 1":   `unexpected character '∑' (at offset 0)`,
		"line @":  `unexpected character '@' (at offset 5)`,
	} {
		_, err := Compile(src)
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("Compile(%q) = %v, want an error ending %q", src, err, want)
		}
	}
}

func TestParseQuery(t *testing.T) {
	v := testView()
	t.Run("filter only", func(t *testing.T) {
		q, err := ParseQuery("line == 42")
		if err != nil {
			t.Fatal(err)
		}
		if q.Count || q.By != "" || q.Filter == nil {
			t.Fatalf("bad query: %+v", q)
		}
		if !q.Filter.Match(v) {
			t.Error("filter should match")
		}
	})
	t.Run("bare count", func(t *testing.T) {
		q, err := ParseQuery("count")
		if err != nil {
			t.Fatal(err)
		}
		if !q.Count || q.By != "" || q.Filter != nil {
			t.Fatalf("bad query: %+v", q)
		}
	})
	t.Run("count by", func(t *testing.T) {
		q, err := ParseQuery("count by function")
		if err != nil {
			t.Fatal(err)
		}
		if !q.Count || q.By != "function" {
			t.Fatalf("bad query: %+v", q)
		}
	})
	t.Run("filter pipe count", func(t *testing.T) {
		q, err := ParseQuery(`function == "fib" | count by line`)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Count || q.By != "line" || q.Filter == nil {
			t.Fatalf("bad query: %+v", q)
		}
	})
	bad := []string{
		"",
		"| count",
		"line == 1 |",
		"line == 1 | sum",
		"count by zzz",
		"count by 3",
		"count extra",
		"line == 1 | count by function extra",
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q): expected error", src)
		} else if !errors.Is(err, core.ErrBadQuery) {
			t.Errorf("ParseQuery(%q): error does not unwrap to ErrBadQuery", src)
		}
	}
}

func TestEvalResultScalar(t *testing.T) {
	v := testView()
	prog := MustCompile("n * 2 + 1")
	got := prog.Eval(v)
	if got.Kind != KInt || got.I != 15 {
		t.Errorf("Eval = %+v, want int 15", got)
	}
	if s := MustCompile("pi * 2").Eval(v); s.Kind != KFloat || s.F != 7 {
		t.Errorf("Eval = %+v, want float 7", s)
	}
}

// TestEvalAllocs is the cost-model contract (DESIGN.md §14): evaluating a
// compiled program — matching or not, touching fields and variables — does
// not allocate. This is what lets the MiniPy line hook evaluate conditions
// on every traced line without disturbing the inferior.
func TestEvalAllocs(t *testing.T) {
	v := testView()
	exprs := []string{
		"line == 41",                     // non-matching field compare
		"line == 42 && n > 100",          // var access, non-matching
		`function == "fib" && depth < 5`, // matching
		"frames[0].locals.n > 100",       // frame access
		"exists(zzz) && zzz * 2 > n",     // missing var, short circuit
		"len(name) + len(xs) > 100",      // builtins
	}
	for _, src := range exprs {
		prog := MustCompile(src)
		allocs := testing.AllocsPerRun(200, func() {
			prog.Eval(v)
		})
		if allocs != 0 {
			t.Errorf("Eval(%q) allocates %v per run, want 0", src, allocs)
		}
	}
}

func TestScalarTruthy(t *testing.T) {
	cases := []struct {
		s    Scalar
		want bool
	}{
		{Missing, false},
		{Scalar{Kind: KNone}, false},
		{IntScalar(0), false},
		{IntScalar(-1), true},
		{FloatScalar(0), false},
		{FloatScalar(0.1), true},
		{BoolScalar(false), false},
		{BoolScalar(true), true},
		{StrScalar(""), false},
		{StrScalar("x"), true},
		{Scalar{Kind: KList, I: 0}, false},
		{Scalar{Kind: KList, I: 2}, true},
		{Scalar{Kind: KDict, I: 0}, false},
		{Scalar{Kind: KOther}, true},
	}
	for _, tc := range cases {
		if got := tc.s.Truthy(); got != tc.want {
			t.Errorf("Truthy(%+v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestProgramSource(t *testing.T) {
	src := "line == 42 && n > 3"
	prog := MustCompile(src)
	if prog.Source != src {
		t.Errorf("Source = %q, want %q", prog.Source, src)
	}
}
