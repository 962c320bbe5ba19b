package gdbtracker

import (
	"fmt"

	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/ttd"
)

// Time travel (core.WithRecording): the tracker records its own pauses
// into a ttd.Recorder, one step per live pause, and navigates them with
// the embedded ttd.Travel. The MI server only reports stops; what a stop
// means is the tracker's, so a recorded step carries the tracker's
// PauseReason and a landing reports exactly what the live pause said.
//
//   - Recording: at every live pause (Start, an implicit start, each
//     control call) recordPause adds the State fetched for that pause,
//     the one State() then serves, plus the program output since the
//     pause before. The exit stop seals the recording with the globals'
//     final values.
//
//   - Navigation crosses no pipe. While rewound, State, CurrentFrame,
//     GlobalVariables and Position read the recording; Registers, ValueAt
//     and HeapBlocks, which it does not hold, fail, and MemorySegments is
//     nil.
//
// MiniGDB records pause by pause, so StepBack and NextBack move one pause
// at a time, and LastChange dates a write at the first pause that saw it
// (a local written after its function's last pause is not recorded).
// ResumeBack is ErrUnsupported: the tracker has no reverse classifier
// (ttd.Reverser), since its probes are breakpoints inside the MI server,
// and a recording made pause by pause holds no execution between two
// pauses to classify.

// recordPause adds the live pause classifyStop just read to the recording:
// the State fetched for it, which fetchState stamps with the tracker's
// reason and caches for the tool (Recorder.Add never mutates it), and the
// output since the pause before. The step is the call, return or line
// event pt.EventOf makes of the reason, so a trace replay's probes fire
// where the live ones did. At the exit it seals the recording with the
// State read after the exit. A fetch failure is the control call's error;
// a recording failure latches and the time-travel calls report it.
func (t *Tracker) recordPause() error {
	rec := t.rec
	if rec == nil || t.recErr != nil {
		return nil
	}
	out := t.recOut.String()
	t.recOut.Reset()
	var st *core.State
	var err error
	if t.exited {
		st, _, err = t.inspect()
	} else {
		st, err = t.fetchState()
	}
	if err != nil {
		// A session recovery inside the fetch has already replaced the
		// recording with the re-run's.
		if rec == t.rec {
			t.recErr = fmt.Errorf("gdbtracker: recording: %w", err)
		}
		return err
	}
	if t.exited {
		err = rec.Finish(t.exitCode, out, st)
	} else {
		err = rec.Add(pt.EventOf(t.reason), t.curLine, t.curFunc, out, st)
	}
	if err != nil {
		t.recErr = fmt.Errorf("gdbtracker: recording: %w", err)
	}
	return nil
}

// Timeline implements ttd.Host: the run's recording.
func (t *Tracker) Timeline() (ttd.Timeline, bool, bool) { return t.rec.Timeline(t.exited) }

// TravelGuard implements ttd.Host: a live session navigates only what it
// recorded, and nothing once recording failed.
func (t *Tracker) TravelGuard(op string) error {
	switch {
	case t.dead:
		return t.sessionDead(op)
	case !t.cfg.Recording:
		return ttd.ErrNoRecording
	}
	return t.recErr
}

// TravelErr implements ttd.Host.
func (t *Tracker) TravelErr(op string, err error) error { return t.werr(op, err) }

// Land implements ttd.Host: a recorded step is a live pause, so a landing
// reports the pause recorded there.
func (t *Tracker) Land(tl ttd.Timeline, pos int, r core.PauseReason, last int) (err error) {
	if pos >= 0 {
		if r, err = tl.ReasonAt(pos); err != nil {
			return err
		}
	}
	t.reason, t.lastLine = r, last
	return nil
}

// notRecorded is the error of a live-machine inspector while rewound: the
// recording holds neither registers nor raw memory.
func (t *Tracker) notRecorded(op string) error {
	return t.werr(op, fmt.Errorf("%w: not recorded; return to the present", core.ErrUnsupported))
}

// SupportsCapability implements core.CapabilityGate: the TimeTraveler and
// ReverseWatcher methods only work with a recording (WithRecording).
func (t *Tracker) SupportsCapability(ptr any) bool {
	switch ptr.(type) {
	case *core.TimeTraveler, *core.ReverseWatcher:
		return t.cfg.Recording
	}
	return true
}
