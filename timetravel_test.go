package easytracker_test

import (
	"errors"
	"fmt"
	"testing"

	"easytracker"
	"easytracker/internal/gdbtracker"
	"easytracker/internal/pytracker"
	"easytracker/internal/tracetracker"
)

// recordingSurfaces are the live surfaces loaded WithRecording(0).
func recordingSurfaces() []armSurface {
	var out []armSurface
	for _, s := range liveSurfaces {
		s.recording = true
		out = append(out, s)
	}
	return out
}

// timeTraveler views tk as a TimeTraveler, failing the test if it is not.
func timeTraveler(t *testing.T, tk easytracker.Tracker) easytracker.TimeTraveler {
	t.Helper()
	tt, ok := easytracker.As[easytracker.TimeTraveler](tk)
	if !ok {
		t.Fatal("no TimeTraveler")
	}
	return tt
}

// stepN steps tk n times.
func stepN(t *testing.T, tk easytracker.Tracker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tk.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTimeTravelPosBeforeStart: Pos is -1 before Start and nothing is
// recorded yet, on MiniPy and MiniGDB recording sessions, locally and
// through a loopback server; Start puts the cursor on step 0.
func TestTimeTravelPosBeforeStart(t *testing.T) {
	addr := startConformanceServer(t)
	for _, s := range recordingSurfaces() {
		t.Run(s.name, func(t *testing.T) {
			tk := s.load(t, addr)
			if pos, n, ok := easytracker.ReplayPos(tk); pos != -1 || n != 0 || !ok {
				t.Errorf("before Start: ReplayPos = %d/%d %v, want -1/0 true", pos, n, ok)
			}
			if err := tk.Start(); err != nil {
				t.Fatal(err)
			}
			if pos, n, ok := easytracker.ReplayPos(tk); pos != 0 || n < 1 || !ok {
				t.Errorf("after Start: ReplayPos = %d/%d %v, want 0/>=1 true", pos, n, ok)
			}
		})
	}
}

// TestTimeTravelLandingLastLine: a landing's LastLine is the line of the
// recorded step before it, 0 at the first step, on every recording
// surface and on trace replays, locally and through a loopback server. A
// failed navigation call names itself, SeekTo included, and reports the
// line Position does: after SeekTo(1), the rewound one.
func TestTimeTravelLandingLastLine(t *testing.T) {
	addr := startConformanceServer(t)
	v1, v2 := recordAgreeTraces(t)
	surfaces := append(recordingSurfaces(),
		armSurface{name: "trace-v1", kind: "trace", path: v1},
		armSurface{name: "trace-v2", kind: "trace", path: v2},
		armSurface{name: "remote-trace-v1", kind: "trace", path: v1, remote: true},
		armSurface{name: "remote-trace-v2", kind: "trace", path: v2, remote: true})
	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			tk := s.open(t, addr)
			tt := timeTraveler(t, tk)
			stepN(t, tk, 6)
			lines := make([]int, tt.Pos())
			if len(lines) < 2 {
				t.Fatalf("six steps recorded %d steps before the present", len(lines))
			}
			for k := range lines {
				if err := tt.SeekTo(k); err != nil {
					t.Fatal(err)
				}
				_, lines[k] = tk.Position()
			}
			for k := range lines {
				if err := tt.SeekTo(k); err != nil {
					t.Fatal(err)
				}
				want := 0
				if k > 0 {
					want = lines[k-1]
				}
				if got := tk.LastLine(); got != want {
					t.Errorf("SeekTo(%d): LastLine() = %d, want %d", k, got, want)
				}
			}
			if err := tt.SeekTo(1); err != nil {
				t.Fatal(err)
			}
			_, line := tk.Position()
			_, lastChangeErr := easytracker.LastChange(tk, "::nosuch")
			for _, c := range []struct {
				op  string
				err error
			}{
				{"SeekTo", tt.SeekTo(tt.Len() + 100)},
				{"LastChange", lastChangeErr},
			} {
				var te *easytracker.TrackerError
				if !errors.As(c.err, &te) {
					t.Errorf("%s: error %v is no TrackerError", c.op, c.err)
				} else if te.Op != c.op || te.Line != line {
					t.Errorf("%s fails as op %q at line %d; want op %q at Position's line %d", c.op, te.Op, te.Line, c.op, line)
				}
			}
		})
	}
}

// TestTimeTravelForwardReturnsToLive: a forward command from rewound
// inspection runs from the present, so it reports the pause, position,
// last line and recording position of a session that never rewound.
func TestTimeTravelForwardReturnsToLive(t *testing.T) {
	addr := startConformanceServer(t)
	for _, s := range recordingSurfaces() {
		t.Run(s.name, func(t *testing.T) {
			pause := func(rewind bool) string {
				tk := s.open(t, addr)
				tt := timeTraveler(t, tk)
				stepN(t, tk, 6)
				if rewind {
					if err := tt.SeekTo(1); err != nil {
						t.Fatal(err)
					}
				}
				stepN(t, tk, 1)
				_, line := tk.Position()
				return fmt.Sprintf("%v, line %d, last line %d, pos %d of %d",
					tk.PauseReason(), line, tk.LastLine(), tt.Pos(), tt.Len())
			}
			if got, want := pause(true), pause(false); got != want {
				t.Errorf("Step after SeekTo(1): %s\nwithout the rewind:  %s", got, want)
			}
		})
	}
}

// newSink keeps each constructed tracker on the heap.
var newSink any

// TestTrackerNewAllocs pins what constructing each tracker allocates. The
// time-travel front end, like the arming calls, holds the tracker as an
// interface value and adds nothing.
func TestTrackerNewAllocs(t *testing.T) {
	for _, c := range []struct {
		kind string
		want float64
		new  func() any
	}{
		{"minipy", 5, func() any { return pytracker.New() }},
		{"minigdb", 3, func() any { return gdbtracker.New() }},
		{"trace", 1, func() any { return tracetracker.New() }},
	} {
		if got := testing.AllocsPerRun(100, func() { newSink = c.new() }); got != c.want {
			t.Errorf("%s: New() makes %v allocations, want %v", c.kind, got, c.want)
		}
	}
}
