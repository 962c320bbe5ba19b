package easytracker_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"easytracker"
	"easytracker/internal/core"
)

// armSurface is one surface a probe is armed on: a tracker kind, the
// program it loads, and whether it runs through a loopback server.
type armSurface struct {
	name, kind, path, src string
	remote, recording     bool
	global                string // the program's watched global; "" is total
}

// open loads and starts a fresh session on the surface.
func (s armSurface) open(t *testing.T, addr string) easytracker.Tracker {
	t.Helper()
	tk := s.load(t, addr)
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	return tk
}

// load loads a fresh session on the surface without starting it.
func (s armSurface) load(t *testing.T, addr string) easytracker.Tracker {
	t.Helper()
	remoteAddr := ""
	if s.remote {
		remoteAddr = addr
	}
	tk := conformanceTracker(t, s.kind, remoteAddr)
	t.Cleanup(func() { tk.Terminate() })
	var opts []easytracker.LoadOption
	if s.src != "" {
		opts = append(opts, easytracker.WithSource(s.src))
	}
	if s.recording {
		opts = append(opts, easytracker.WithRecording(0))
	}
	if err := tk.LoadProgram(s.path, opts...); err != nil {
		t.Fatal(err)
	}
	return tk
}

var liveSurfaces = []armSurface{
	{name: "minipy", kind: "minipy", path: "agree.py", src: agreePy},
	{name: "minigdb", kind: "minigdb", path: "agree.c", src: agreeC},
	{name: "remote-minipy", kind: "minipy", path: "agree.py", src: agreePy, remote: true},
	{name: "remote-minigdb", kind: "minigdb", path: "agree.c", src: agreeC, remote: true},
}

// pausesToExit resumes tk to its exit and renders every pause on the way,
// without the watch ID as armed.
func pausesToExit(t *testing.T, tk easytracker.Tracker) []string {
	t.Helper()
	var out []string
	for i := 0; i < 100; i++ {
		if _, done := tk.ExitCode(); done {
			return out
		}
		if err := tk.Resume(); err != nil {
			t.Fatal(err)
		}
		r := tk.PauseReason()
		r.Variable = ""
		out = append(out, r.String())
	}
	t.Fatal("runaway resume loop")
	return nil
}

// TestWatchIDGrammarOnEverySurface: every tracker reads a watch ID with
// core.ParseVarRef, so "globals.total" pauses exactly where "::total" does,
// and a malformed ID fails at arm time with ErrBadQuery and arms nothing.
// The MiniPy rows with a non-ASCII global pin that a Unicode name arms and
// fires, as it does in a MiniPy program and in a condition.
func TestWatchIDGrammarOnEverySurface(t *testing.T) {
	addr := startConformanceServer(t)
	v1, v2 := recordAgreeTraces(t)
	anneePy := strings.ReplaceAll(agreePy, "total", "année")
	u1, u2 := recordTraces(t, anneePy)
	surfaces := append(slices.Clone(liveSurfaces),
		armSurface{name: "trace-v1", kind: "trace", path: v1},
		armSurface{name: "trace-v2", kind: "trace", path: v2},
		armSurface{name: "remote-trace", kind: "trace", path: v1, remote: true},
		armSurface{name: "minipy-unicode", kind: "minipy", path: "agree.py", src: anneePy, global: "année"},
		armSurface{name: "remote-minipy-unicode", kind: "minipy", path: "agree.py", src: anneePy, remote: true, global: "année"},
		armSurface{name: "trace-v1-unicode", kind: "trace", path: u1, global: "année"},
		armSurface{name: "trace-v2-unicode", kind: "trace", path: u2, global: "année"})
	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			g := cmp.Or(s.global, "total")
			watched := func(id string) []string {
				tk := s.open(t, addr)
				if err := tk.Watch(id); err != nil {
					t.Fatalf("Watch(%q): %v", id, err)
				}
				return pausesToExit(t, tk)
			}
			want := watched("::" + g)
			if len(want) < 5 {
				t.Fatalf("::%s paused %d times, want the four sums and the exit: %q", g, len(want), want)
			}
			if got := watched("globals." + g); !slices.Equal(got, want) {
				t.Errorf("globals.%s pauses differ from ::%s\ngot:  %q\nwant: %q", g, g, got, want)
			}

			tk := s.open(t, addr)
			for _, id := range []string{"a:b:c", "1x", "frames[0].locals.x", "::", "total:", "globals."} {
				if err := tk.Watch(id); !errors.Is(err, easytracker.ErrBadQuery) {
					t.Errorf("Watch(%q) = %v, want ErrBadQuery", id, err)
				}
			}
			if got := pausesToExit(t, tk); len(got) != 1 {
				t.Errorf("malformed watch IDs armed something: pauses %q", got)
			}
		})
	}
}

// armAgreeProbes arms a line breakpoint, a watch, a tracked function and a
// function breakpoint on an agree.py or agree.c session. Line 11 is
// "total = total + square(i)" in both languages.
func armAgreeProbes(t *testing.T, tk easytracker.Tracker) {
	t.Helper()
	for _, err := range []error{
		tk.BreakBeforeLine("", 11),
		tk.Watch("::total"),
		tk.TrackFunction("square"),
		tk.BreakBeforeFunc("run"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sameReason fails unless State().Reason encodes exactly like
// PauseReason() at the session's current pause.
func sameReason(t *testing.T, tk easytracker.Tracker, at string) {
	t.Helper()
	sp, ok := easytracker.As[easytracker.StateProvider](tk)
	if !ok {
		t.Fatal("no StateProvider")
	}
	st, err := sp.State()
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	want, _ := core.EncodePauseReasonJSON(tk.PauseReason())
	got, _ := core.EncodePauseReasonJSON(st.Reason)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: State().Reason = %s, PauseReason() = %s", at, got, want)
	}
}

// TestStateReasonIsPauseReason: at every live pause, whichever probe or
// step caused it, State().Reason encodes exactly like PauseReason(), on a
// local tracker and through a loopback server. The seek rows run a
// recording session (MiniPy and MiniGDB, local and loopback) or a trace
// replay (v1 and v2) to its exit and then seek to every recorded step,
// where both report the landing. MiniGDB records one step per pause, so
// there a landing also reports the live pause recorded at its step.
func TestStateReasonIsPauseReason(t *testing.T) {
	addr := startConformanceServer(t)
	for _, s := range liveSurfaces {
		t.Run(s.name, func(t *testing.T) {
			tk := s.open(t, addr)
			armAgreeProbes(t, tk)
			for i := 0; ; i++ {
				if i == 200 {
					t.Fatal("runaway control loop")
				}
				if _, done := tk.ExitCode(); done {
					return
				}
				sameReason(t, tk, fmt.Sprintf("pause %d", i))
				var err error
				if i%3 == 0 {
					err = tk.Step()
				} else {
					err = tk.Resume()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	// Tracking square records its calls and returns as CALL and RETURN
	// steps, reasons a landing there does not report.
	v1, v2 := recordTraces(t, agreePy, "square")
	var seekSurfaces []armSurface
	for _, s := range liveSurfaces {
		s.recording = true
		seekSurfaces = append(seekSurfaces, s)
	}
	seekSurfaces = append(seekSurfaces,
		armSurface{name: "trace-v1", kind: "trace", path: v1},
		armSurface{name: "trace-v2", kind: "trace", path: v2})
	for _, s := range seekSurfaces {
		t.Run(s.name+"/seek", func(t *testing.T) {
			tk := s.open(t, addr)
			armAgreeProbes(t, tk)
			tt, ok := easytracker.As[easytracker.TimeTraveler](tk)
			if !ok {
				t.Fatal("no TimeTraveler")
			}
			// live[i] is the live pause at recorded step i of a MiniGDB
			// session, which records one step per pause.
			var live [][]byte
			if s.kind == "minigdb" {
				for i := 0; ; i++ {
					if i == 200 {
						t.Fatal("runaway resume loop")
					}
					if _, done := tk.ExitCode(); done {
						break
					}
					if p := tt.Pos(); p != len(live) {
						t.Fatalf("pause %d recorded at step %d", len(live), p)
					}
					r, _ := core.EncodePauseReasonJSON(tk.PauseReason())
					live = append(live, r)
					if err := tk.Resume(); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				pausesToExit(t, tk)
			}
			n := tt.Len()
			if n < 10 {
				t.Fatalf("recording has %d steps", n)
			}
			for i := 0; i < n; i++ {
				if err := tt.SeekTo(i); err != nil {
					t.Fatalf("SeekTo(%d): %v", i, err)
				}
				sameReason(t, tk, fmt.Sprintf("step %d", i))
				if live == nil {
					continue
				}
				got, _ := core.EncodePauseReasonJSON(tk.PauseReason())
				if want := live[tt.Pos()]; !bytes.Equal(got, want) {
					t.Errorf("landing on step %d reports %s, the live pause there was %s", tt.Pos(), got, want)
				}
			}
		})
	}
}

// TestWatchArmedWhereDefined: a watch armed while its variable is already
// defined takes its snapshot there, so its first pause is the first change
// of the value, reported against the value it was armed on, on every
// surface. The session stops at the loop's first "total = total +
// square(i)", with total at 0, and arms ::total there.
func TestWatchArmedWhereDefined(t *testing.T) {
	addr := startConformanceServer(t)
	v1, v2 := recordAgreeTraces(t)
	surfaces := append(slices.Clone(liveSurfaces),
		armSurface{name: "trace-v1", kind: "trace", path: v1},
		armSurface{name: "trace-v2", kind: "trace", path: v2},
		armSurface{name: "remote-trace", kind: "trace", path: v2, remote: true})
	scalar := func(v *easytracker.Value) string {
		if v == nil {
			return "<nil>"
		}
		if d := v.Deref(); d != nil {
			v = d
		}
		return v.String()
	}
	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			tk := s.open(t, addr)
			if err := tk.BreakBeforeLine("", 11); err != nil {
				t.Fatal(err)
			}
			if err := tk.Resume(); err != nil {
				t.Fatal(err)
			}
			if r := tk.PauseReason(); r.Type != easytracker.PauseBreakpoint || r.Line != 11 {
				t.Fatalf("first pause %v, want the breakpoint at line 11", r)
			}
			if err := tk.Watch("::total"); err != nil {
				t.Fatal(err)
			}
			if err := tk.Resume(); err != nil {
				t.Fatal(err)
			}
			r := tk.PauseReason()
			if got := fmt.Sprintf("%v %s -> %s", r.Type, scalar(r.Old), scalar(r.New)); got != "WATCH 0 -> 1" {
				t.Errorf("first pause after arming: %s (%v), want WATCH 0 -> 1", got, r)
			}
		})
	}
}
