// Package query implements a small typed expression language over execution
// events — the declarative form of "when should this probe fire" and "which
// trace steps match":
//
//	line == 42 && frames[0].locals.x > 10
//	function == "fib" && depth < 5
//	exists(acc) && len(data) > 3 || ::done
//
// An expression is compiled once (lexer → parser → type checker → flat
// instruction program) and evaluated per event against a lazy EventView that
// materializes only the fields and variables the expression actually names.
// Evaluation is allocation-free: the operand stack is preallocated at
// compile time and every runtime value is a Scalar held by value, so a
// conditional breakpoint whose condition does not match adds zero
// allocations to the tracker's per-line hot path
// (BenchmarkConditionalBreakMiniPy gates this).
//
// The trace-query entry point (ParseQuery) adds one aggregation form on top
// of the expression language: `count` and `count by FIELD`, optionally
// behind a filter (`function == "fib" | count by line`). See DESIGN.md §14
// for the grammar and the cost model.
package query

import (
	"fmt"

	"easytracker/internal/core"
)

// ScalarKind discriminates a Scalar.
type ScalarKind uint8

const (
	// KMissing is an unresolvable variable (not defined at this event).
	// Every comparison against it is false; exists() is how queries test
	// for it.
	KMissing ScalarKind = iota
	// KInt, KFloat, KBool and KStr carry primitive payloads.
	KInt
	KFloat
	KBool
	KStr
	// KNone is the inferior's null value (MiniPy None).
	KNone
	// KList and KDict carry only their element count (in I): queries can
	// len() and truth-test containers without materializing them.
	KList
	KDict
	// KOther is any value the view cannot reduce (structs, functions).
	// It is truthy and incomparable.
	KOther
)

// Scalar is the runtime value representation of the evaluator: a small
// tagged union passed by value so variable reads allocate nothing. Container
// kinds carry only their length — deep values never cross into the
// evaluator.
type Scalar struct {
	Kind ScalarKind
	I    int64
	F    float64
	B    bool
	S    string
}

// Missing is the canonical unresolved-variable Scalar.
var Missing = Scalar{Kind: KMissing}

// IntScalar builds a KInt Scalar.
func IntScalar(v int64) Scalar { return Scalar{Kind: KInt, I: v} }

// FloatScalar builds a KFloat Scalar.
func FloatScalar(v float64) Scalar { return Scalar{Kind: KFloat, F: v} }

// BoolScalar builds a KBool Scalar.
func BoolScalar(v bool) Scalar { return Scalar{Kind: KBool, B: v} }

// StrScalar builds a KStr Scalar.
func StrScalar(v string) Scalar { return Scalar{Kind: KStr, S: v} }

// Truthy applies the language's truth rule (Python-flavored): missing and
// none are false, numbers are non-zero, strings and containers are
// non-empty, everything else is true.
func (s Scalar) Truthy() bool {
	switch s.Kind {
	case KMissing, KNone:
		return false
	case KInt:
		return s.I != 0
	case KFloat:
		return s.F != 0
	case KBool:
		return s.B
	case KStr:
		return len(s.S) > 0
	case KList, KDict:
		return s.I > 0
	default:
		return true
	}
}

// Len returns the length a len() call observes, with ok=false for kinds
// that have none.
func (s Scalar) Len() (int64, bool) {
	switch s.Kind {
	case KStr:
		return int64(len(s.S)), true
	case KList, KDict:
		return s.I, true
	default:
		return 0, false
	}
}

// EventView is the lazy window a compiled Program evaluates against: one
// execution event (a line about to run, a call, a return) of a live or
// replayed inferior. Implementations resolve only what the expression asks
// for — an expression that never names a variable never touches frames.
//
// Var's scope is a core.ParseVarRef scope, resolved by core.State.Lookup's
// rule: "" resolves name through the current scope chain (innermost
// locals, then globals), "::" resolves a global, any other scope resolves
// a local of the innermost live activation of that function. FrameVar
// resolves a local of the idx-th frame, innermost = 0.
type EventView interface {
	// Line is the current source line.
	Line() int
	// Depth is the current frame depth (entry frame = 0).
	Depth() int
	// Event names the event kind: "line", "call" or "return".
	Event() string
	// Function is the innermost frame's function name.
	Function() string
	// File is the main source file name.
	File() string
	// Var resolves a variable; Missing when undefined.
	Var(scope, name string) Scalar
	// FrameVar resolves a local of the idx-th stack frame (0 innermost);
	// Missing when the frame or the name does not exist.
	FrameVar(idx int, name string) Scalar
}

// Error is a query compile failure: a lexical, syntactic or type error at a
// byte offset of the source expression. It unwraps to core.ErrBadQuery so
// every layer classifies it with errors.Is.
type Error struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("%v: %s (at offset %d)", core.ErrBadQuery, e.Msg, e.Pos)
}

// Unwrap exposes the ErrBadQuery sentinel.
func (e *Error) Unwrap() error { return core.ErrBadQuery }

func errf(pos int, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Event-kind names shared by every view implementation.
const (
	EventLine   = "line"
	EventCall   = "call"
	EventReturn = "return"
)
