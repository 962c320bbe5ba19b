package gdbtracker

import (
	"fmt"

	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/ttd"
)

// Time travel (core.WithRecording): the tracker records its own pauses
// into a ttd.Recorder, one step per live pause, and navigates them with a
// local ttd.Cursor, as the MiniPy tracker does with its per-line
// recording. The MI server only reports stops; what a stop means is the
// tracker's, so a recorded step carries the tracker's PauseReason and a
// landing reports exactly what the live pause said.
//
//   - Recording: at every live pause (Start, an implicit start, each
//     control call) recordPause adds the State fetched for that pause,
//     the one State() then serves, plus the program output since the
//     pause before. The exit stop seals the recording.
//
//   - Navigation: StepBack and SeekTo move the cursor and cross no pipe.
//     While rewound, State, CurrentFrame, GlobalVariables and Position
//     read the recording; Registers, ValueAt, HeapBlocks and
//     WatchVersions, which it does not hold, fail, and MemorySegments is
//     nil. Any forward command snaps inspection back to the live present
//     first.
//
// MiniGDB records pause by pause, not line by line, so StepBack rewinds
// one pause at a time. ResumeBack and NextBack are not offered.

// replaying reports whether inspection is rewound into the recording.
func (t *Tracker) replaying() bool { return t.rec != nil && !t.cur.AtHead() }

// recordPause adds the live pause classifyStop just read to the recording:
// the State fetched for it, which fetchState stamps with the tracker's
// reason and caches for the tool, and the output since the pause before.
// Recorder.Add never mutates the State, so the tool may be served it too.
// A fetch failure is the control call's error; a recording failure
// latches and the time-travel calls report it.
func (t *Tracker) recordPause() error {
	rec := t.rec
	if rec == nil || t.recErr != nil {
		return nil
	}
	out := t.recOut.String()
	t.recOut.Reset()
	var err error
	if t.exited {
		err = rec.Finish(t.exitCode, out)
	} else {
		var st *core.State
		if st, err = t.fetchState(); err != nil {
			// A session recovery inside the fetch has already
			// replaced the recording with the re-run's.
			if rec == t.rec {
				t.recErr = fmt.Errorf("gdbtracker: recording: %w", err)
			}
			return err
		}
		err = rec.Add(pt.EventStepLine, t.curLine, t.curFunc, out, st)
	}
	if err != nil {
		t.recErr = fmt.Errorf("gdbtracker: recording: %w", err)
	}
	return nil
}

func (t *Tracker) ttOK(op string) error {
	if t.dead {
		return t.sessionDead(op)
	}
	if !t.cfg.Recording {
		return t.werr(op, fmt.Errorf("%w: recording not enabled (load with WithRecording)", core.ErrUnsupported))
	}
	if t.recErr != nil {
		return t.werr(op, t.recErr)
	}
	if t.rec == nil || t.rec.Len() == 0 {
		return t.werr(op, core.ErrNotStarted)
	}
	return nil
}

// leaveLive stashes the present's pause bookkeeping before a cursor move,
// so returning to the present restores it.
func (t *Tracker) leaveLive() {
	if t.cur.AtHead() {
		t.liveReason, t.liveLast = t.reason, t.lastLine
	}
}

// land reports where a cursor move put inspection: the live present when
// the move ended on the head of a running inferior, else the pause
// recorded at the landing step, after the line of the step before it (0
// at the first).
func (t *Tracker) land() error {
	if t.cur.AtHead() {
		t.reason, t.lastLine = t.liveReason, t.liveLast
		return nil
	}
	s := t.rec.Store()
	pos := t.cur.Pos(s)
	r, err := s.ReasonAt(pos)
	if err != nil {
		return err
	}
	t.reason, t.lastLine = r, 0
	if pos > 0 {
		t.lastLine = s.LineAt(pos - 1)
	}
	return nil
}

// returnToLive snaps inspection back to the inferior's present moment.
func (t *Tracker) returnToLive() {
	if t.replaying() {
		t.cur = ttd.Cursor{}
		t.reason, t.lastLine = t.liveReason, t.liveLast
	}
}

// StepBack implements core.TimeTraveler: rewind inspection one recorded
// pause.
func (t *Tracker) StepBack() error {
	if err := t.ttOK("StepBack"); err != nil {
		return err
	}
	t.leaveLive()
	t.cur.StepBack(t.rec.Store(), t.exited)
	return t.werr("StepBack", t.land())
}

// SeekTo implements core.TimeTraveler: jump inspection to an absolute
// recorded pause. Seeking to the head of a running inferior returns
// inspection to the live present.
func (t *Tracker) SeekTo(step int) error {
	if err := t.ttOK("SeekTo"); err != nil {
		return err
	}
	t.leaveLive()
	if err := t.cur.Seek(t.rec.Store(), step, t.exited); err != nil {
		return t.werr("SeekTo", err)
	}
	return t.werr("SeekTo", t.land())
}

// ResumeBack implements core.TimeTraveler. MiniGDB records pause by pause,
// so there is no recorded execution between two pauses to run backwards
// over; it is not offered.
func (t *Tracker) ResumeBack() error {
	return t.werr("ResumeBack", fmt.Errorf("reverse continue over MI: %w", core.ErrUnsupported))
}

// NextBack implements core.TimeTraveler; see ResumeBack.
func (t *Tracker) NextBack() error {
	return t.werr("NextBack", fmt.Errorf("reverse next over MI: %w", core.ErrUnsupported))
}

// Pos implements core.TimeTraveler: the current step index in the
// recording, -1 before Start.
func (t *Tracker) Pos() int {
	if t.rec == nil || t.rec.Len() == 0 {
		return -1
	}
	return t.cur.Pos(t.rec.Store())
}

// Len implements core.TimeTraveler: the number of recorded steps.
func (t *Tracker) Len() int {
	if t.rec == nil {
		return 0
	}
	return t.rec.Len()
}

// replayState serves inspection while rewound: the State recorded at the
// cursor, which carries the landing's reason. Its frame and value graphs
// are shared with the store's memo and are read-only, like the live cache.
func (t *Tracker) replayState() (*core.State, error) {
	s := t.rec.Store()
	return s.StateAt(t.cur.Pos(s))
}

// notRecorded is the error of a live-machine inspector while rewound: the
// recording holds neither registers, raw memory nor store counters.
func (t *Tracker) notRecorded(op string) error {
	return t.werr(op, fmt.Errorf("%w: not recorded; return to the present", core.ErrUnsupported))
}

// SupportsCapability implements core.CapabilityGate: the TimeTraveler
// methods exist unconditionally but only work with a recording, so the
// capability follows WithRecording.
func (t *Tracker) SupportsCapability(ptr any) bool {
	if _, ok := ptr.(*core.TimeTraveler); ok {
		return t.cfg.Recording
	}
	return true
}
