package core

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// This file defines the unified probe model: one typed arming surface for
// the four pause-producing mechanisms (line breakpoint, function
// breakpoint, watchpoint, tracked function). Historically each mechanism
// had its own method with its own option set — BreakBeforeLine took
// options, Watch took none. A Probe gives all four the same shape and the
// same option set (BreakConfig: maxdepth, condition, ignore count,
// one-shot), and Tracker.Arm installs any of them. The paper-named methods
// remain, written once over Arm by Arming.

// ProbeKind discriminates the probe target.
type ProbeKind int

const (
	// ProbeLine pauses just before a source line executes.
	ProbeLine ProbeKind = iota
	// ProbeFunc pauses just before a function body runs, with arguments
	// bound and inspectable.
	ProbeFunc
	// ProbeWatch pauses when a watched variable is modified.
	ProbeWatch
	// ProbeTrack pauses at every entry and exit of a function.
	ProbeTrack
)

// String names the probe kind.
func (k ProbeKind) String() string {
	switch k {
	case ProbeLine:
		return "line"
	case ProbeFunc:
		return "func"
	case ProbeWatch:
		return "watch"
	case ProbeTrack:
		return "track"
	default:
		return "ProbeKind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Probe is one typed arming request: a target (what to pause on) plus the
// shared BreakConfig (when to actually pause).
type Probe struct {
	// Kind selects the target fields below.
	Kind ProbeKind
	// File and Line locate a ProbeLine target ("" file = main file).
	File string
	Line int
	// Function names a ProbeFunc or ProbeTrack target.
	Function string
	// VarID identifies a ProbeWatch target in ParseVarRef's grammar
	// ("name", "func:name", "::name" or "globals.name").
	VarID string
	// BreakConfig is the shared option set: maxdepth, condition, ignore
	// count, one-shot.
	BreakConfig
}

// ParseVarRef parses a variable reference, the one grammar of watch
// identifiers and reverse-watch queries, into its (scope, name) pair: ""
// for the scope chain, "::" for a global, a function name for that
// function's innermost activation (State.Lookup's three scopes).
//
//	x            -> ("", "x")
//	::g          -> ("::", "g")
//	fib:n        -> ("fib", "n")
//	globals.g    -> ("::", "g")
//
// Surrounding spaces are ignored. The frames[i].locals.x form is positional
// — it names a stack slot, not a variable — and is rejected: a watch or a
// reverse-watch query needs a stable identity across steps. Malformed
// references report ErrBadQuery.
func ParseVarRef(ref string) (scope, name string, err error) {
	s := strings.TrimSpace(ref)
	bad := func(why string) (string, string, error) {
		return "", "", fmt.Errorf("%w: bad variable reference %q: %s", ErrBadQuery, ref, why)
	}
	if s == "" {
		return bad("empty")
	}
	if strings.HasPrefix(s, "frames[") || strings.HasPrefix(s, "frames") && strings.Contains(s, "[") {
		return bad("frames[i] slots are positional; use name, ::name or func:name")
	}
	if rest, ok := strings.CutPrefix(s, "globals."); ok {
		if !isIdent(rest) {
			return bad("globals. must be followed by an identifier")
		}
		return "::", rest, nil
	}
	if rest, ok := strings.CutPrefix(s, "::"); ok {
		if !isIdent(rest) {
			return bad(":: must be followed by an identifier")
		}
		return "::", rest, nil
	}
	if fn, local, found := strings.Cut(s, ":"); found {
		if !isIdent(fn) || !isIdent(local) {
			return bad("func:name needs two identifiers")
		}
		return fn, local, nil
	}
	if !isIdent(s) {
		return bad("not an identifier")
	}
	return "", s, nil
}

// IsIdentStart reports whether r may start an identifier: an underscore or
// a Unicode letter. IsIdentStart and IsIdentPart are the one identifier
// rule of variable references and of the query language's lexer, so a name
// a condition accepts is a name a watch accepts.
func IsIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }

// IsIdentPart reports whether r may continue an identifier: an underscore,
// a Unicode letter or a Unicode digit.
func IsIdentPart(r rune) bool { return IsIdentStart(r) || unicode.IsDigit(r) }

// isIdent reports whether s is one identifier.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if !IsIdentPart(r) || i == 0 && !IsIdentStart(r) {
			return false
		}
	}
	return true
}

// LineProbe builds a line-breakpoint probe.
func LineProbe(file string, line int, opts ...BreakOption) Probe {
	return Probe{Kind: ProbeLine, File: file, Line: line, BreakConfig: ApplyBreakOptions(opts)}
}

// FuncProbe builds a function-breakpoint probe.
func FuncProbe(name string, opts ...BreakOption) Probe {
	return Probe{Kind: ProbeFunc, Function: name, BreakConfig: ApplyBreakOptions(opts)}
}

// WatchProbe builds a watchpoint probe.
func WatchProbe(varID string, opts ...BreakOption) Probe {
	return Probe{Kind: ProbeWatch, VarID: varID, BreakConfig: ApplyBreakOptions(opts)}
}

// TrackProbe builds a function-tracking probe.
func TrackProbe(name string, opts ...BreakOption) Probe {
	return Probe{Kind: ProbeTrack, Function: name, BreakConfig: ApplyBreakOptions(opts)}
}

// Arming derives the four paper-named arming calls from a tracker's Arm.
// Trackers embed it, set to themselves when constructed; it holds the
// tracker as an interface value, so constructing a tracker allocates
// nothing more.
type Arming struct {
	arm interface{ Arm(Probe) error }
}

// NewArming returns the arming calls of the tracker t.
func NewArming(t interface{ Arm(Probe) error }) Arming { return Arming{arm: t} }

// BreakBeforeLine is Arm(LineProbe(file, line, opts...)).
func (a Arming) BreakBeforeLine(file string, line int, opts ...BreakOption) error {
	return a.arm.Arm(LineProbe(file, line, opts...))
}

// BreakBeforeFunc is Arm(FuncProbe(name, opts...)).
func (a Arming) BreakBeforeFunc(name string, opts ...BreakOption) error {
	return a.arm.Arm(FuncProbe(name, opts...))
}

// TrackFunction is Arm(TrackProbe(name, opts...)).
func (a Arming) TrackFunction(name string, opts ...BreakOption) error {
	return a.arm.Arm(TrackProbe(name, opts...))
}

// Watch is Arm(WatchProbe(varID, opts...)).
func (a Arming) Watch(varID string, opts ...BreakOption) error {
	return a.arm.Arm(WatchProbe(varID, opts...))
}

// Op returns the legacy method name behind this probe kind, used as the Op
// of TrackerErrors so error transcripts are identical whichever surface
// armed the probe.
func (p Probe) Op() string {
	switch p.Kind {
	case ProbeLine:
		return "BreakBeforeLine"
	case ProbeFunc:
		return "BreakBeforeFunc"
	case ProbeWatch:
		return "Watch"
	default:
		return "TrackFunction"
	}
}

// String renders the probe for journals and lost-item reports.
func (p Probe) String() string {
	var s string
	switch p.Kind {
	case ProbeLine:
		if p.File != "" {
			s = fmt.Sprintf("breakpoint %s:%d", p.File, p.Line)
		} else {
			s = fmt.Sprintf("breakpoint at line %d", p.Line)
		}
	case ProbeFunc:
		s = "breakpoint on " + p.Function
	case ProbeWatch:
		s = "watchpoint on " + p.VarID
	default:
		s = "tracked function " + p.Function
	}
	if p.Condition != "" {
		s += " when " + p.Condition
	}
	return s
}

// ConditionalBreaker is the capability interface of trackers that evaluate
// probe conditions (WithCondition / easytracker.When) inferior-side: a
// non-matching hit resumes transparently instead of pausing. All built-in
// trackers implement it; the remote client gates it on the backend's
// advertised capability set.
type ConditionalBreaker interface {
	// ConditionalProbes reports whether probe conditions are evaluated
	// before pausing.
	ConditionalProbes() bool
}
