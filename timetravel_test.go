package easytracker_test

import (
	"fmt"
	"testing"

	"easytracker"
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
// surface and on trace replays.
func TestTimeTravelLandingLastLine(t *testing.T) {
	addr := startConformanceServer(t)
	v1, v2 := recordAgreeTraces(t)
	surfaces := append(recordingSurfaces(),
		armSurface{name: "trace-v1", kind: "trace", path: v1},
		armSurface{name: "trace-v2", kind: "trace", path: v2})
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
