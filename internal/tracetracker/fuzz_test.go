package tracetracker

import (
	"errors"
	"testing"

	"easytracker/internal/core"
)

// FuzzTraceReplay feeds arbitrary bytes through LoadProgram, which sniffs
// v1 and v2 traces, arms a line, tracked and function probe and two
// watches that share events (a global and a local), then runs a fuzzed
// sequence of the control, navigation and inspection calls. Contract:
// every call returns a result or a *core.TrackerError, never a panic. The
// committed corpus (testdata/fuzz/FuzzTraceReplay) holds a small recorded
// trace in both formats (recorded-v1, recorded-v2), a budget-cut partial
// trace (budget-cut-v1), the v2 recording of a live MiniPy WithRecording
// session, whose call and return steps pt.Record's traces lack
// (live-recording-v2), and the v2 recording of a MiniGDB WithRecording
// session with a watch, a tracked function and a breakpoint armed, one
// step per pause, whose recorded reasons are BREAKPOINT, WATCH, CALL and
// RETURN pauses and whose terminal step records a global written after
// the last pause, once as recorded when every pause was a line step
// (minigdb-recording-v2) and once with its CALL and RETURN pauses
// recorded as call and return steps (minigdb-recording-calls-v2).
func FuzzTraceReplay(f *testing.F) {
	every := make([]byte, 0, 32)
	for op := byte(0); op < 16; op++ {
		every = append(every, op, op|0x90)
	}
	f.Add([]byte(finishedOnlyTrace), []byte{0x06, 0x16, 0x07})
	f.Add([]byte(`{"trACe":[{}]}`), every)
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		tr := New()
		if tr.LoadProgram("fuzz.trace", core.WithSource(string(data))) != nil {
			return
		}
		check := func(err error) {
			t.Helper()
			var te *core.TrackerError
			if err != nil && !errors.As(err, &te) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
		}
		check(tr.Start())
		check(tr.BreakBeforeLine("", 2))
		check(tr.TrackFunction("f"))
		check(tr.BreakBeforeFunc("f"))
		check(tr.Watch("::x"))
		check(tr.Watch("f:n"))
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, op := range ops {
			// The high nibble is the argument: a seek target near the
			// start of the recording or, from 8 on, near its end.
			arg := int(op >> 4)
			target := arg - 1
			if arg >= 8 {
				target = tr.Len() + arg - 12
			}
			var err error
			switch op & 15 {
			case 0:
				err = tr.Resume()
			case 1:
				err = tr.Step()
			case 2:
				err = tr.Next()
			case 3:
				err = tr.StepBack()
			case 4:
				err = tr.NextBack()
			case 5:
				err = tr.ResumeBack()
			case 6:
				err = tr.SeekTo(target)
			case 7:
				_, err = tr.State()
			case 8:
				_, err = tr.CurrentFrame()
			case 9:
				_, err = tr.GlobalVariables()
			case 10:
				_, err = tr.LastChange([]string{"::x", "x", "f:n", "frames[0]"}[arg%4])
			case 11:
				tr.Position()
				tr.LastLine()
				tr.Pos()
				tr.PauseReason()
				tr.ExitCode()
				tr.Stdout()
			case 12:
				_, err = tr.SourceLines()
			case 13:
				err = tr.BreakBeforeLine("", arg, core.WithIgnoreHits(1))
			case 14:
				err = tr.Watch("x", core.WithCondition("x > 1"), core.WithOneShot())
			case 15:
				err = tr.Terminate()
			}
			check(err)
		}
	})
}
