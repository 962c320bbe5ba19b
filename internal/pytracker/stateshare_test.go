package pytracker

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/minipy"
	"easytracker/internal/pt"
)

// sharingPrograms lists the MiniPy testdata programs and the write-barrier
// program.
func sharingPrograms(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "minipy", "testdata", "programs", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join("..", "minipy", "testdata", "writebarriers.py"))
	if len(files) < 14 {
		t.Fatalf("expected the 13 testdata programs and writebarriers.py, found %d", len(files))
	}
	return files
}

// digest hashes the encoding of a state document.
func digest(t *testing.T, st *core.State) [32]byte {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// loadSharing loads a testdata program on the chosen engine.
func loadSharing(t *testing.T, file string, ast bool) *Tracker {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	opts := []core.LoadOption{core.WithSource(string(src))}
	if ast {
		opts = append(opts, core.WithASTInterpreter())
	}
	tr := New()
	if err := tr.LoadProgram(filepath.Base(file), opts...); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReturnedStatesNeverChange holds every State, frame chain and globals
// slice the tracker returns over a whole run, stepping line by line with
// State, CurrentFrame and GlobalVariables interleaved. Returned States share
// structure across pauses, so a later pause must never write into what an
// earlier one returned: at session end every retained result must encode
// to the bytes it had when it was returned.
func TestReturnedStatesNeverChange(t *testing.T) {
	type held struct {
		st  *core.State
		sum [32]byte
	}
	for _, file := range sharingPrograms(t) {
		for _, ast := range []bool{false, true} {
			tr := loadSharing(t, file, ast)
			if err := tr.Start(); err != nil {
				t.Fatal(err)
			}
			var kept []held
			keep := func(st *core.State) { kept = append(kept, held{st, digest(t, st)}) }
			for step := 0; ; step++ {
				if _, done := tr.ExitCode(); done {
					break
				}
				switch step % 3 {
				case 1:
					fr, err := tr.CurrentFrame()
					if err != nil {
						t.Fatal(err)
					}
					keep(&core.State{Frame: fr})
				case 2:
					g, err := tr.GlobalVariables()
					if err != nil {
						t.Fatal(err)
					}
					keep(&core.State{Globals: g})
				}
				st, err := tr.State()
				if err != nil {
					t.Fatal(err)
				}
				keep(st)
				if err := tr.Step(); err != nil {
					t.Fatalf("%s: %v", file, err)
				}
			}
			tr.Terminate()
			for i, h := range kept {
				if digest(t, h.st) != h.sum {
					t.Fatalf("%s (ast=%v): result %d changed after it was returned", file, ast, i)
				}
			}
		}
	}
}

// digestingTracker records the digest of every State pt.Record takes, at
// the moment it is returned.
type digestingTracker struct {
	*Tracker
	t    *testing.T
	sums [][32]byte
}

func (d *digestingTracker) State() (*core.State, error) {
	st, err := d.Tracker.State()
	if err == nil {
		d.sums = append(d.sums, digest(d.t, &core.State{Frame: st.Frame, Globals: st.Globals}))
	}
	return st, err
}

// TestRecordedTraceStatesNeverChange runs the same check over a pt.Record
// full trace, which keeps every State of the run.
func TestRecordedTraceStatesNeverChange(t *testing.T) {
	for _, file := range sharingPrograms(t) {
		for _, ast := range []bool{false, true} {
			d := &digestingTracker{Tracker: loadSharing(t, file, ast), t: t}
			trace, err := pt.Record(d, nil, pt.Options{Mode: pt.ModeFullStep})
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			n := 0
			for _, s := range trace.Steps {
				if s.State == nil {
					continue
				}
				if digest(t, &core.State{Frame: s.State.Frame, Globals: s.State.Globals}) != d.sums[n] {
					t.Fatalf("%s (ast=%v): step %d changed after it was recorded", file, ast, n)
				}
				n++
			}
			if n != len(d.sums) || n == 0 {
				t.Fatalf("%s: %d recorded States for %d State calls", file, n, len(d.sums))
			}
		}
	}
}

// TestStateMatchesOneShotAtPauses runs a probe-shaped watch program on both
// engines and, at every pause, requires the State the session converter
// builds to encode exactly as a one-shot conversion of the same pause. The
// watch reasons' Old/New values share each document with the frames and
// globals, so any Value shared between them would show up as a backref.
func TestStateMatchesOneShotAtPauses(t *testing.T) {
	src := `data = list(range(1000))
w = 0
node = [0, None]
node[1] = node
while w < 30:
    w = w + 1
    if w % 10 == 0:
        data[w] = w + 1000
    if w % 7 == 0:
        node[0] = w
`
	for _, ast := range []bool{false, true} {
		opts := []core.LoadOption{core.WithSource(src)}
		if ast {
			opts = append(opts, core.WithASTInterpreter())
		}
		tr := New()
		if err := tr.LoadProgram("probe.py", opts...); err != nil {
			t.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"::w", "::data", "::node"} {
			if err := tr.Watch(id); err != nil {
				t.Fatal(err)
			}
		}
		for pause := 0; ; pause++ {
			if _, done := tr.ExitCode(); done {
				break
			}
			st, err := tr.State()
			if err != nil {
				t.Fatal(err)
			}
			one := minipy.NewConverter(tr.interp)
			want := &core.State{
				Frame:   minipy.SnapshotFrame(one, tr.curFrame, tr.file),
				Globals: minipy.SnapshotGlobals(one, tr.interp.Globals),
				Reason:  st.Reason,
			}
			if digest(t, st) != digest(t, want) {
				t.Fatalf("ast=%v pause %d (%s): session State differs from a one-shot conversion", ast, pause, st.Reason.Type)
			}
			if err := tr.Resume(); err != nil {
				t.Fatal(err)
			}
		}
		tr.Terminate()
	}
}
