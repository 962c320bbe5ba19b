package easytracker_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"easytracker"
	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/query"
	"easytracker/internal/ttd"
	"easytracker/internal/vnet"
)

// The cross-backend conformance suite: the same scenario matrix — breakpoint,
// watch, tracked function, stepping, interrupt, resource budget, crash and
// the error surface — runs against each backend twice, once on a local
// tracker and once through a loopback et-serve session, and the transcripts
// must be identical: same pause reasons, same State JSON, same typed errors
// under errors.Is. This is the contract that makes -remote invisible to
// tools.

const crashPy = `x = 10
y = 0
z = x / y
`

// startConformanceServer runs a loopback server shared by the suite.
func startConformanceServer(t *testing.T) string {
	t.Helper()
	srv := easytracker.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// conformanceTracker builds the tracker under test: local, or a session on
// the loopback server.
func conformanceTracker(t *testing.T, kind, remoteAddr string) easytracker.Tracker {
	t.Helper()
	if remoteAddr == "" {
		tr, err := easytracker.New(kind)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr, err := easytracker.Connect(remoteAddr, kind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// errClass renders an error's observable identity: which sentinels it
// matches and, for typed errors, the full header. Local and remote failures
// must classify identically.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	sentinels := []struct {
		name string
		err  error
	}{
		{"no-program", easytracker.ErrNoProgram},
		{"not-started", easytracker.ErrNotStarted},
		{"exited", easytracker.ErrExited},
		{"unknown-variable", easytracker.ErrUnknownVariable},
		{"unknown-function", easytracker.ErrUnknownFunction},
		{"bad-line", easytracker.ErrBadLine},
		{"unsupported", easytracker.ErrUnsupported},
		{"command-timeout", easytracker.ErrCommandTimeout},
		{"session-lost", easytracker.ErrSessionLost},
		{"inferior-crash", easytracker.ErrInferiorCrash},
	}
	var parts []string
	for _, s := range sentinels {
		if errors.Is(err, s.err) {
			parts = append(parts, s.name)
		}
	}
	var te *easytracker.TrackerError
	if errors.As(err, &te) {
		parts = append(parts, fmt.Sprintf("op=%s kind=%s at=%s:%d recovery=%s backtrace=%d",
			te.Op, te.Kind, te.File, te.Line, te.Recovery, len(te.Backtrace)))
	}
	return "err[" + strings.Join(parts, " ") + "]"
}

// note records one observation line into the transcript.
type transcript struct {
	lines []string
}

func (tr *transcript) note(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

// observePause records the pause reason, position and — when the backend
// provides snapshots — the full State JSON.
func (tr *transcript) observePause(t *testing.T, tk easytracker.Tracker) {
	t.Helper()
	r := tk.PauseReason()
	file, line := tk.Position()
	tr.note("pause %s | pos %s:%d last %d", r, file, line, tk.LastLine())
	if sp, ok := easytracker.As[easytracker.StateProvider](tk); ok {
		if _, done := tk.ExitCode(); !done {
			st, err := sp.State()
			if err != nil {
				tr.note("state err %s", errClass(err))
				return
			}
			data, err := json.Marshal(st)
			if err != nil {
				t.Fatalf("marshal state: %v", err)
			}
			tr.note("state %s", data)
		}
	}
}

// resumeUntilExit resumes, observing every pause, with a runaway guard.
func (tr *transcript) resumeUntilExit(t *testing.T, tk easytracker.Tracker) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if _, done := tk.ExitCode(); done {
			code, _ := tk.ExitCode()
			tr.note("exit %d", code)
			return
		}
		tr.note("resume %s", errClass(tk.Resume()))
		tr.observePause(t, tk)
	}
	t.Fatal("runaway resume loop")
}

// conformanceScenario is one cell row of the matrix.
type conformanceScenario struct {
	name string
	skip func(kind string) bool
	run  func(t *testing.T, tr *transcript, tk easytracker.Tracker, kind, path, src string)
}

func loadStart(t *testing.T, tr *transcript, tk easytracker.Tracker, path, src string, opts ...easytracker.LoadOption) {
	t.Helper()
	opts = append([]easytracker.LoadOption{easytracker.WithSource(src)}, opts...)
	tr.note("load %s", errClass(tk.LoadProgram(path, opts...)))
	tr.note("start %s", errClass(tk.Start()))
	tr.observePause(t, tk)
}

func conformanceScenarios() []conformanceScenario {
	return []conformanceScenario{
		{name: "breakpoint", run: func(t *testing.T, tr *transcript, tk easytracker.Tracker, kind, path, src string) {
			loadStart(t, tr, tk, path, src)
			// Line 11 is "total = total + square(i)" in both languages.
			tr.note("break %s", errClass(tk.BreakBeforeLine("", 11, easytracker.WithMaxDepth(3))))
			tr.resumeUntilExit(t, tk)
		}},
		{name: "watch", run: func(t *testing.T, tr *transcript, tk easytracker.Tracker, kind, path, src string) {
			loadStart(t, tr, tk, path, src)
			tr.note("watch %s", errClass(tk.Watch("::total")))
			tr.resumeUntilExit(t, tk)
		}},
		{name: "track", run: func(t *testing.T, tr *transcript, tk easytracker.Tracker, kind, path, src string) {
			loadStart(t, tr, tk, path, src)
			tr.note("track %s", errClass(tk.TrackFunction("square")))
			tr.note("break-func %s", errClass(tk.BreakBeforeFunc("run")))
			tr.resumeUntilExit(t, tk)
		}},
		{name: "step-next", run: func(t *testing.T, tr *transcript, tk easytracker.Tracker, kind, path, src string) {
			loadStart(t, tr, tk, path, src)
			for i := 0; i < 4; i++ {
				tr.note("step %s", errClass(tk.Step()))
				tr.observePause(t, tk)
			}
			for i := 0; i < 3; i++ {
				tr.note("next %s", errClass(tk.Next()))
				tr.observePause(t, tk)
			}
		}},
		{name: "interrupt",
			skip: func(kind string) bool { return kind == "trace" },
			run: func(t *testing.T, tr *transcript, tk easytracker.Tracker, kind, path, src string) {
				loadStart(t, tr, tk, path, src)
				// Interrupt while paused: the flag is sticky, so the next
				// Resume pauses immediately and deterministically.
				if !easytracker.Interrupt(tk) {
					t.Fatal("tracker refused Interrupt")
				}
				tr.note("resume %s", errClass(tk.Resume()))
				r := tk.PauseReason()
				tr.note("pause-type %s detail %s", r.Type, r.Detail)
			}},
		{name: "budget", run: func(t *testing.T, tr *transcript, tk easytracker.Tracker, kind, path, src string) {
			budget := easytracker.Budgets{MaxSteps: 10}
			if kind == "minigdb" {
				budget = easytracker.Budgets{MaxInstructions: 60}
			}
			loadStart(t, tr, tk, path, src, easytracker.WithBudgets(budget))
			tr.note("resume %s", errClass(tk.Resume()))
			r := tk.PauseReason()
			tr.note("pause-type %s detail %s", r.Type, r.Detail)
			// The budget is one-shot: the next resume runs free.
			tr.resumeUntilExit(t, tk)
		}},
		{name: "crash",
			skip: func(kind string) bool { return kind != "minipy" },
			run: func(t *testing.T, tr *transcript, tk easytracker.Tracker, kind, path, src string) {
				loadStart(t, tr, tk, "crash.py", crashPy)
				tr.note("resume %s", errClass(tk.Resume()))
				code, done := tk.ExitCode()
				tr.note("exitcode %d %v", code, done)
			}},
		{name: "error-surface", run: func(t *testing.T, tr *transcript, tk easytracker.Tracker, kind, path, src string) {
			loadStart(t, tr, tk, path, src)
			tr.note("watch-bad %s", errClass(tk.Watch("no_such_var")))
			tr.note("break-bad %s", errClass(tk.BreakBeforeLine("", 9999)))
			tr.note("track-bad %s", errClass(tk.TrackFunction("no_such_func")))
			tr.resumeUntilExit(t, tk)
			tr.note("resume-after-exit %s", errClass(tk.Resume()))
			tr.note("step-after-exit %s", errClass(tk.Step()))
		}},
	}
}

func TestRemoteConformance(t *testing.T) {
	addr := startConformanceServer(t)
	langs := []struct{ kind, path, src string }{
		{"minipy", "agree.py", agreePy},
		{"minigdb", "agree.c", agreeC},
	}
	for _, lang := range langs {
		for _, sc := range conformanceScenarios() {
			if sc.skip != nil && sc.skip(lang.kind) {
				continue
			}
			t.Run(lang.kind+"/"+sc.name, func(t *testing.T) {
				run := func(remoteAddr string) []string {
					tk := conformanceTracker(t, lang.kind, remoteAddr)
					defer tk.Terminate()
					tr := &transcript{}
					sc.run(t, tr, tk, lang.kind, lang.path, lang.src)
					return tr.lines
				}
				local := run("")
				remote := run(addr)
				if len(local) != len(remote) {
					t.Fatalf("transcript lengths differ: local %d, remote %d\nlocal:\n%s\nremote:\n%s",
						len(local), len(remote), strings.Join(local, "\n"), strings.Join(remote, "\n"))
				}
				for i := range local {
					if local[i] != remote[i] {
						t.Errorf("transcript line %d differs:\nlocal:  %s\nremote: %s", i, local[i], remote[i])
					}
				}
			})
		}
	}
}

// TestRemoteConformanceSubscribe proves the server-side subscription filter
// is an exact optimization: the pauses a Subscribe session surfaces are
// line-identical — reasons, positions and full State JSON — to what a client
// filtering every pause locally would keep, while moving strictly fewer wire
// frames in both directions.
func TestRemoteConformanceSubscribe(t *testing.T) {
	langs := []struct{ kind, path, src string }{
		{"minipy", "agree.py", agreePy},
		{"minigdb", "agree.c", agreeC},
	}
	// Line 11 is "total = total + square(i)" in both languages; the loop
	// runs i = 1..4, so the filter keeps the last two of four hits.
	const expr = "i >= 3"
	for _, lang := range langs {
		t.Run(lang.kind, func(t *testing.T) {
			// Each run gets its own loopback server so its frame counters
			// measure that run alone.
			run := func(subscribe bool) (lines []string, in, out, filtered uint64) {
				srv := easytracker.NewServer()
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(ln)
				defer srv.Close()
				tk, err := easytracker.Connect(ln.Addr().String(), lang.kind)
				if err != nil {
					t.Fatal(err)
				}
				defer tk.Close()
				defer tk.Terminate()
				tr := &transcript{}
				if err := tk.LoadProgram(lang.path, easytracker.WithSource(lang.src)); err != nil {
					t.Fatalf("load: %v", err)
				}
				if err := tk.Start(); err != nil {
					t.Fatalf("start: %v", err)
				}
				if err := tk.BreakBeforeLine("", 11); err != nil {
					t.Fatalf("break: %v", err)
				}
				var filter *query.Program
				if subscribe {
					if err := tk.Subscribe(expr); err != nil {
						t.Fatalf("subscribe: %v", err)
					}
				} else {
					filter = query.MustCompile(expr)
				}
				sp, ok := easytracker.As[easytracker.StateProvider](tk)
				if !ok {
					t.Fatal("remote session denies StateProvider")
				}
				for i := 0; i < 100; i++ {
					if err := tk.Resume(); err != nil {
						t.Fatalf("resume: %v", err)
					}
					if _, done := tk.ExitCode(); done {
						code, _ := tk.ExitCode()
						tr.note("exit %d", code)
						snap := srv.Stats()
						return tr.lines, snap.Counters[core.CtrRemoteFramesIn],
							snap.Counters[core.CtrRemoteFramesOut],
							snap.Counters[core.CtrRemoteFiltered]
					}
					if filter != nil {
						// Client-side filtering: pull the snapshot for every
						// pause and mirror the server's event view.
						st, err := sp.State()
						if err != nil {
							t.Fatalf("state: %v", err)
						}
						r := tk.PauseReason()
						file, line := tk.Position()
						ev := query.EventLine
						switch r.Type {
						case easytracker.PauseCall:
							ev = query.EventCall
						case easytracker.PauseReturn:
							ev = query.EventReturn
						}
						v := query.StateView{
							EventName: ev, LineNo: line, FileName: file,
							FuncName: r.Function, State: st,
						}
						if !filter.Match(&v) {
							continue
						}
					}
					tr.observePause(t, tk)
				}
				t.Fatal("runaway resume loop")
				return nil, 0, 0, 0
			}
			client, cliIn, cliOut, cliFiltered := run(false)
			server, subIn, subOut, subFiltered := run(true)
			if len(client) == 0 || strings.Join(client, "\n") != strings.Join(server, "\n") {
				t.Errorf("transcripts differ:\nclient-filtered:\n%s\nsubscribed:\n%s",
					strings.Join(client, "\n"), strings.Join(server, "\n"))
			}
			if subIn >= cliIn || subOut >= cliOut {
				t.Errorf("subscription moved no fewer frames: in %d vs %d, out %d vs %d",
					subIn, cliIn, subOut, cliOut)
			}
			if cliFiltered != 0 {
				t.Errorf("client-filtered run counted %d server-side filtered pauses, want 0", cliFiltered)
			}
			if subFiltered != 2 {
				t.Errorf("subscribed run filtered %d pauses server-side, want 2 (i = 1, 2)", subFiltered)
			}
		})
	}
}

// TestRemoteConformanceTrace replays the same recorded trace locally and
// through the server. The trace file exists only on the client side: the
// client ships its bytes in the load spec, so the server needs no shared
// filesystem.
func TestRemoteConformanceTrace(t *testing.T) {
	addr := startConformanceServer(t)

	// Record a trace with a local tracker.
	rec, err := easytracker.New("minipy")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := rec.LoadProgram("agree.py", easytracker.WithSource(agreePy),
		easytracker.WithStdout(&out)); err != nil {
		t.Fatal(err)
	}
	trace, err := pt.Record(rec, &out, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := trace.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "agree.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(remoteAddr string) []string {
		tk := conformanceTracker(t, "trace", remoteAddr)
		defer tk.Terminate()
		tr := &transcript{}
		tr.note("load %s", errClass(tk.LoadProgram(path)))
		tr.note("start %s", errClass(tk.Start()))
		tr.observePause(t, tk)
		for i := 0; i < 10; i++ {
			tr.note("step %s", errClass(tk.Step()))
			tr.observePause(t, tk)
		}
		return tr.lines
	}
	local := run("")
	remote := run(addr)
	for i := range local {
		if i >= len(remote) || local[i] != remote[i] {
			t.Fatalf("trace transcript line %d differs:\nlocal:  %s\nremote: %v",
				i, local[i], remote[min(i, len(remote)-1)])
		}
	}
}

// recordAgreeTraces records agreePy once and writes it out in both trace
// formats: v1 (full-step states) and v2 (deltas + checkpoints). The two
// files describe the same execution, so every observation made through
// either must agree.
func recordAgreeTraces(t *testing.T) (v1Path, v2Path string) {
	t.Helper()
	return recordTraces(t, agreePy)
}

// recordTraces records the MiniPy program src as recordAgreeTraces does,
// with the functions fns tracked.
func recordTraces(t *testing.T, src string, fns ...string) (v1Path, v2Path string) {
	t.Helper()
	rec, err := easytracker.New("minipy")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := rec.LoadProgram("agree.py", easytracker.WithSource(src),
		easytracker.WithStdout(&out)); err != nil {
		t.Fatal(err)
	}
	trace, err := pt.Record(rec, &out, pt.Options{Mode: pt.ModeFullStep, TrackFunctions: fns, Lang: "minipy"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1, err := trace.Encode()
	if err != nil {
		t.Fatal(err)
	}
	v1Path = filepath.Join(dir, "agree.v1.trace")
	if err := os.WriteFile(v1Path, v1, 0o644); err != nil {
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
	v2Path = filepath.Join(dir, "agree.v2.trace")
	if err := os.WriteFile(v2Path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	return v1Path, v2Path
}

// noteChange renders a reverse-watch answer into the transcript.
func (tr *transcript) noteChange(tag string, ch *easytracker.VarChange, err error) {
	if err != nil || ch == nil {
		tr.note("%s %s", tag, errClass(err))
		return
	}
	data, _ := json.Marshal(ch)
	tr.note("%s %s", tag, data)
}

// TestRemoteConformanceTimeTravel drives the reverse operations — StepBack,
// SeekTo, ResumeBack, NextBack, LastChange — on a trace-backed session,
// locally and through the loopback server, in both trace formats. All four
// transcripts (v1/v2 × local/remote) must be line-identical: the wire and
// the delta encoding are both invisible to a tool replaying history. The
// MiniPy and MiniGDB recording sessions run the same script, and each
// renders the same transcript locally and through the loopback server;
// both next back and answer LastChange, and MiniGDB, which has no reverse
// classifier, reports ResumeBack unsupported alike on both.
func TestRemoteConformanceTimeTravel(t *testing.T) {
	addr := startConformanceServer(t)
	v1Path, v2Path := recordAgreeTraces(t)

	run := func(s armSurface, remoteAddr string) []string {
		tk := conformanceTracker(t, s.kind, remoteAddr)
		defer tk.Terminate()
		var opts []easytracker.LoadOption
		if s.recording {
			opts = append(opts, easytracker.WithSource(s.src), easytracker.WithRecording(0))
		}
		tr := &transcript{}
		tr.note("load %s", errClass(tk.LoadProgram(s.path, opts...)))
		_, tt := easytracker.As[easytracker.TimeTraveler](tk)
		_, rw := easytracker.As[easytracker.ReverseWatcher](tk)
		tr.note("caps tt=%v rw=%v", tt, rw)
		pos, length, ok := easytracker.ReplayPos(tk)
		tr.note("replay-pos %d/%d %v", pos, length, ok)
		tr.note("start %s", errClass(tk.Start()))
		tr.observePause(t, tk)
		tr.note("watch %s", errClass(tk.Watch("::total")))
		for i := 0; i < 6; i++ {
			tr.note("step %s", errClass(tk.Step()))
			tr.observePause(t, tk)
		}
		pos, length, ok = easytracker.ReplayPos(tk)
		tr.note("replay-pos %d/%d %v", pos, length, ok)
		for i := 0; i < 3; i++ {
			tr.note("step-back %s", errClass(easytracker.StepBack(tk)))
			tr.observePause(t, tk)
		}
		mid := length / 2
		tr.note("seek %d %s", mid, errClass(easytracker.SeekTo(tk, mid)))
		tr.observePause(t, tk)
		ch, err := easytracker.LastChange(tk, "::total")
		tr.noteChange("last-change", ch, err)
		tr.note("resume-back %s", errClass(easytracker.ResumeBack(tk)))
		tr.observePause(t, tk)
		tr.note("next-back %s", errClass(easytracker.NextBack(tk)))
		tr.observePause(t, tk)
		tr.note("seek-oob %s", errClass(easytracker.SeekTo(tk, length+100)))
		tr.note("seek-zero %s", errClass(easytracker.SeekTo(tk, 0)))
		tr.observePause(t, tk)
		pos, length, ok = easytracker.ReplayPos(tk)
		tr.note("replay-pos %d/%d %v", pos, length, ok)
		// After the exit the cursor rests on the last real step, and the
		// reverse watch answers from there: the real last write, never a
		// deletion read off the terminal bookkeeping step.
		tr.resumeUntilExit(t, tk)
		pos, length, ok = easytracker.ReplayPos(tk)
		tr.note("replay-pos %d/%d %v", pos, length, ok)
		ch, err = easytracker.LastChange(tk, "::total")
		tr.noteChange("last-change", ch, err)
		return tr.lines
	}

	v1, v2 := armSurface{kind: "trace", path: v1Path}, armSurface{kind: "trace", path: v2Path}
	transcripts := map[string][]string{
		"v1-local":  run(v1, ""),
		"v1-remote": run(v1, addr),
		"v2-local":  run(v2, ""),
		"v2-remote": run(v2, addr),
	}
	ref := transcripts["v1-local"]
	for name, lines := range transcripts {
		if len(lines) != len(ref) {
			t.Fatalf("%s transcript has %d lines, v1-local has %d\n%s\nvs\n%s",
				name, len(lines), len(ref), strings.Join(lines, "\n"), strings.Join(ref, "\n"))
		}
		for i := range ref {
			if lines[i] != ref[i] {
				t.Errorf("%s line %d differs:\nv1-local: %s\n%s: %s", name, i, ref[i], name, lines[i])
			}
		}
	}
	for _, s := range recordingSurfaces() {
		if s.remote {
			continue
		}
		local, remote := run(s, ""), run(s, addr)
		if len(remote) != len(local) {
			t.Fatalf("%s: loopback transcript has %d lines, local %d\n%s\nvs\n%s", s.name,
				len(remote), len(local), strings.Join(remote, "\n"), strings.Join(local, "\n"))
		}
		for i := range local {
			if remote[i] != local[i] {
				t.Errorf("%s line %d differs:\nlocal:    %s\nloopback: %s", s.name, i, local[i], remote[i])
			}
			if tag, rest, _ := strings.Cut(local[i], " "); tag == "next-back" && rest != "ok" ||
				tag == "last-change" && !strings.HasPrefix(rest, "{") {
				t.Errorf("%s: %s", s.name, local[i])
			}
		}
	}
}

// TestRemoteReplayRejectsTraceWithoutSteps sends a trace whose only step
// is the terminal "finished" step through a loopback session. The server
// runs a connection's ops without recovering panics, so a replay that
// indexed before step 0 would kill the hosting process. The load fails,
// the session's later calls report errors, and the server keeps serving
// new sessions.
func TestRemoteReplayRejectsTraceWithoutSteps(t *testing.T) {
	addr := startConformanceServer(t)
	const finishedOnly = `{"code":"x = 1","file":"a.py","trace":[{"event":"finished","line":0,"stdout":""}]}`
	tk := conformanceTracker(t, "trace", addr)
	defer tk.Terminate()
	if err := tk.LoadProgram("a.trace", easytracker.WithSource(finishedOnly)); err == nil {
		t.Fatal("trace with only a finished step loaded")
	}
	if err := tk.Start(); err == nil {
		t.Fatal("Start after a rejected load succeeded")
	}
	if err := easytracker.SeekTo(tk, 0); err == nil {
		t.Fatal("SeekTo after a rejected load succeeded")
	}
	_, v2Path := recordAgreeTraces(t)
	next := conformanceTracker(t, "trace", addr)
	defer next.Terminate()
	if err := next.LoadProgram(v2Path); err != nil {
		t.Fatalf("server stopped serving after the rejected trace: %v", err)
	}
	if err := next.Start(); err != nil {
		t.Fatal(err)
	}
	if err := easytracker.SeekTo(next, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteTimeTravelSeekReplayAfterDisconnect severs the wire while the
// client is inspecting a recorded step. The redial journal must rebuild the
// session *and* re-seek the replay cursor: after the recovery error, the
// position and the full State JSON are exactly what they were before the
// outage, with nothing reported lost.
func TestRemoteTimeTravelSeekReplayAfterDisconnect(t *testing.T) {
	_, v2Path := recordAgreeTraces(t)

	n := vnet.New(11)
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := easytracker.NewServer()
	go srv.Serve(ln)
	defer srv.Close()

	tk, err := easytracker.Connect("srv", "trace",
		easytracker.WithDialer(n.Dialer("tt-cli")))
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Close()
	pol := easytracker.RedialPolicy{
		MaxAttempts: 50, BaseDelay: 2 * time.Millisecond, MaxDelay: 25 * time.Millisecond,
		Multiplier: 2, Jitter: 0.3, Budget: 20 * time.Second, MaxRecoveries: 4,
	}
	if err := tk.LoadProgram(v2Path, easytracker.WithRedialPolicy(pol)); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Watch("::total"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tk.Step(); err != nil {
			t.Fatal(err)
		}
	}
	const target = 5
	if err := easytracker.SeekTo(tk, target); err != nil {
		t.Fatal(err)
	}
	pos, length, ok := easytracker.ReplayPos(tk)
	if !ok || pos != target {
		t.Fatalf("replay pos before outage = %d/%d %v, want %d", pos, length, ok, target)
	}
	sp, ok := easytracker.As[easytracker.StateProvider](tk)
	if !ok {
		t.Fatal("remote trace session denies StateProvider")
	}
	st, err := sp.State()
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}

	n.Sever("tt-cli", "srv")

	// The op that discovers the outage fails with a recovery report; the
	// journal replay behind it must have restored the seek position.
	rerr := easytracker.StepBack(tk)
	var te *easytracker.TrackerError
	if !errors.As(rerr, &te) || te.Recovery != easytracker.RecoveryRestarted {
		t.Fatalf("StepBack across outage: err = %v, want RecoveryRestarted", rerr)
	}
	if len(te.Lost) != 0 {
		t.Fatalf("recovery lost items: %v", te.Lost)
	}
	pos, length2, ok := easytracker.ReplayPos(tk)
	if !ok || pos != target || length2 != length {
		t.Fatalf("replay pos after recovery = %d/%d %v, want %d/%d", pos, length2, ok, target, length)
	}
	st, err = sp.State()
	if err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("state diverged across recovery:\nbefore: %s\nafter:  %s", before, after)
	}

	// The rebuilt session keeps working in both directions.
	if err := easytracker.StepBack(tk); err != nil {
		t.Fatal(err)
	}
	if p, _, _ := easytracker.ReplayPos(tk); p != target-1 {
		t.Fatalf("pos after StepBack = %d, want %d", p, target-1)
	}
	if err := tk.Step(); err != nil {
		t.Fatal(err)
	}
	if p, _, _ := easytracker.ReplayPos(tk); p != target {
		t.Fatalf("pos after forward Step = %d, want %d", p, target)
	}
}
