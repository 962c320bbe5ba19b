package tracetracker

import (
	"fmt"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/pytracker"
	"easytracker/internal/ttd"
)

// watchRulePrograms are programs on which comparing String() renderings,
// with "<undef>" for a missing variable, disagrees with core.WatchChanged:
// a watched local whose frame returns, a del, an int and a float that are
// numerically equal but render differently, and 0 against -0.0.
var watchRulePrograms = []struct {
	name, watch, src string
}{
	{"local-goes-out-of-scope", "f:x", `def f():
    x = 1
    x = 2
    return x

a = f()
b = f()
`},
	{"del-global", "::x", `y = 0
x = 1
del x
y = 2
`},
	{"int-float-beyond-2^53", "::x", `y = 0
x = 9007199254740993
x = 9007199254740992.0
y = 1
`},
	{"zero-negative-zero", "::x", `y = 0
x = 0
x = -0.0
y = 1
`},
}

// watchTracker is the tracker surface the transcripts drive: the forward
// control calls plus reverse execution.
type watchTracker interface {
	core.Tracker
	ResumeBack() error
	Pos() int
}

// renderPause renders a watch pause for a transcript.
func renderPause(r core.PauseReason) string {
	val := func(v *core.Value) string {
		if v == nil {
			return "<nil>"
		}
		return v.String()
	}
	return fmt.Sprintf("%s@%d %s -> %s", r.Variable, r.Line, val(r.Old), val(r.New))
}

// forwardWatches resumes a started tracker to exit, rendering every pause.
func forwardWatches(t *testing.T, tr watchTracker) []string {
	t.Helper()
	var got []string
	for i := 0; i < 1000; i++ {
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			return got
		}
		r := tr.PauseReason()
		if r.Type != core.PauseWatch {
			t.Fatalf("unexpected pause %v", r)
		}
		got = append(got, renderPause(r))
	}
	t.Fatal("forward replay did not finish")
	return nil
}

// backwardWatches runs ResumeBack from the exit pause to the entry point,
// rendering every watch pause.
func backwardWatches(t *testing.T, tr watchTracker) []string {
	t.Helper()
	var got []string
	for i := 0; i < 1000; i++ {
		if err := tr.ResumeBack(); err != nil {
			t.Fatal(err)
		}
		if tr.Pos() == 0 {
			return got
		}
		r := tr.PauseReason()
		if r.Type != core.PauseWatch {
			t.Fatalf("unexpected pause %v", r)
		}
		got = append(got, renderPause(r))
	}
	t.Fatal("backward replay did not reach entry")
	return nil
}

// TestWatchRuleAgreesAcrossSurfaces pins the one watch-change rule: a live
// session, a v1 trace replay and its v2 conversion give the same forward
// watch transcript, and ResumeBack gives the same transcript on v1, v2 and
// the rewound live session.
func TestWatchRuleAgreesAcrossSurfaces(t *testing.T) {
	for _, p := range watchRulePrograms {
		t.Run(p.name, func(t *testing.T) {
			live := pytracker.New()
			if err := live.LoadProgram("p.py", core.WithSource(p.src), core.WithRecording(0)); err != nil {
				t.Fatal(err)
			}
			if err := live.Start(); err != nil {
				t.Fatal(err)
			}
			if err := live.Watch(p.watch); err != nil {
				t.Fatal(err)
			}
			liveFwd := forwardWatches(t, live)
			liveBack := backwardWatches(t, live)

			rec := pytracker.New()
			var out strings.Builder
			if err := rec.LoadProgram("p.py", core.WithSource(p.src), core.WithStdout(&out)); err != nil {
				t.Fatal(err)
			}
			trace, err := pt.Record(rec, &out, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
			if err != nil {
				t.Fatal(err)
			}
			v1, err := trace.Encode()
			if err != nil {
				t.Fatal(err)
			}
			store, err := ttd.FromTrace(trace, 0)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := store.Trace().Encode()
			if err != nil {
				t.Fatal(err)
			}
			replay := func(data []byte) ([]string, []string) {
				tr := New()
				if err := tr.LoadProgram("p.trace", core.WithSource(string(data))); err != nil {
					t.Fatal(err)
				}
				if err := tr.Start(); err != nil {
					t.Fatal(err)
				}
				if err := tr.Watch(p.watch); err != nil {
					t.Fatal(err)
				}
				return forwardWatches(t, tr), backwardWatches(t, tr)
			}
			v1Fwd, v1Back := replay(v1)
			v2Fwd, v2Back := replay(v2)

			if len(liveFwd) == 0 || len(liveBack) == 0 {
				t.Fatalf("live transcripts empty: forward %q, back %q", liveFwd, liveBack)
			}
			same := func(what string, got, want []string) {
				t.Helper()
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("%s:\n got %q\nwant %q", what, got, want)
				}
			}
			same("forward v1 vs live", v1Fwd, liveFwd)
			same("forward v2 vs live", v2Fwd, liveFwd)
			same("ResumeBack v1 vs rewound live", v1Back, liveBack)
			same("ResumeBack v2 vs rewound live", v2Back, liveBack)
		})
	}
}
