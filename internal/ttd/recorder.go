package ttd

import (
	"encoding/json"
	"errors"
	"fmt"

	"easytracker/internal/core"
	"easytracker/internal/pt"
)

// Recorder builds a v2 trace and its Store incrementally, one state
// snapshot per recorded step. The MiniPy tracker drives it from its trace
// hook, the MiniGDB tracker at every pause, and FromTrace from a decoded v1
// trace. Add never mutates the snapshot it is handed; it keeps it as the
// next step's diff base, so a caller that only calls Add may also serve
// that State to users, as the MiniGDB tracker does. AddLineOnly rewrites
// the previous snapshot's line and reason in place, so a caller that uses
// it, as the MiniPy tracker does, must hand Add freshly converted states
// that nobody else holds.
type Recorder struct {
	s        *Store
	interval int
	prev     *core.State
	sinceCP  int
	finished bool
}

// NewRecorder starts an empty recording. interval > 0 anchors a full-state
// checkpoint every interval steps; interval <= 0 selects the adaptive
// policy, which lets the gap between checkpoints grow with the checkpoint
// count so both the number of checkpoints and the worst-case seek replay
// stay O(sqrt n) without knowing n up front.
func NewRecorder(file, code, lang string, interval int) *Recorder {
	iv := interval
	if iv < 0 {
		iv = 0
	}
	t := &pt.TraceV2{V: pt.V2Version, Code: code, File: file, Lang: lang, Interval: iv}
	return &Recorder{s: newStore(t), interval: interval}
}

// Store returns the live store over the recording so far. The store stays
// valid as the recording grows; reads and appends must not interleave
// (trackers only read while the inferior is paused).
func (r *Recorder) Store() *Store { return r.s }

// Len reports the number of recorded steps.
func (r *Recorder) Len() int { return len(r.s.t.Steps) }

// Timeline is Host.Timeline for a live tracker whose recorder is r, nil
// when it records nothing, and whose program has finished when done holds.
func (r *Recorder) Timeline(done bool) (Timeline, bool, bool) {
	if r == nil {
		return nil, false, false
	}
	return r.s, r.Len() > 0, done
}

// Add records one step from a full state snapshot: the delta against the
// previous snapshot, the step's pause reason, and — on checkpoint steps —
// the serialized state itself. The recorder retains st as the next diff
// base.
func (r *Recorder) Add(event string, line int, fn, out string, st *core.State) error {
	if st == nil {
		return errors.New("ttd: Add needs a state snapshot")
	}
	reason, err := core.EncodePauseReasonJSON(st.Reason)
	if err != nil {
		return fmt.Errorf("ttd: encode reason: %w", err)
	}
	if err := r.addStep(event, line, fn, out, diffState(r.prev, st), reason, st); err != nil {
		return err
	}
	r.prev = st
	return nil
}

// AddLineOnly is the hot-path variant for a line event whose frame did not
// mutate (the tracker's write barriers vouch for it): no snapshot, no diff
// — just a line advance on the previous state. Valid only after at least
// one Add.
func (r *Recorder) AddLineOnly(line int, out string, reason core.PauseReason) error {
	if r.prev == nil || r.prev.Frame == nil {
		return errors.New("ttd: AddLineOnly before first snapshot")
	}
	var d *pt.Delta
	fr := r.prev.Frame
	if fr.Line != line {
		d = &pt.Delta{Lines: []pt.FrameLine{{Depth: r.s.curLen - 1, Line: line, PC: fr.PC}}}
		fr.Line = line
	}
	r.prev.Reason = reason
	raw, err := core.EncodePauseReasonJSON(reason)
	if err != nil {
		return fmt.Errorf("ttd: encode reason: %w", err)
	}
	return r.addStep(pt.EventStepLine, line, fr.Name, out, d, raw, r.prev)
}

// Finish seals the recording with the terminal bookkeeping step, mirroring
// the v1 format's trailing "finished" step. final, when non-nil, is the
// program's state after its exit: the terminal step then records the
// writes to its globals since the last step, keeping that step's frames.
func (r *Recorder) Finish(exitCode int, out string, final *core.State) error {
	if r.finished {
		return nil
	}
	var d *pt.Delta
	if final != nil && r.prev != nil {
		last := *r.prev
		last.Globals = final.Globals
		d = diffState(r.prev, &last)
	}
	if err := r.addStep(pt.EventFinished, 0, "", out, d, nil, nil); err != nil {
		return err
	}
	r.s.t.ExitCode = exitCode
	r.finished = true
	return nil
}

// addStep appends one step and ingests it into the store's indexes. full,
// when non-nil, is the complete state available for checkpointing at this
// step.
func (r *Recorder) addStep(event string, line int, fn, out string, d *pt.Delta, reason json.RawMessage, full *core.State) error {
	if r.finished {
		return errors.New("ttd: recording already finished")
	}
	t := r.s.t
	i := len(t.Steps)
	t.Steps = append(t.Steps, pt.StepV2{
		Event: event, Line: line, Func: fn, Out: out, Delta: d, Reason: reason,
	})
	if err := r.s.ingest(i, &t.Steps[i]); err != nil {
		return err
	}
	if full != nil && r.wantCheckpoint(i) {
		raw, err := full.MarshalJSON()
		if err != nil {
			return fmt.Errorf("ttd: checkpoint state: %w", err)
		}
		t.Checkpoints = append(t.Checkpoints, pt.Checkpoint{Step: i, State: raw})
		r.sinceCP = 0
	} else {
		r.sinceCP++
	}
	return nil
}

// wantCheckpoint decides whether step i anchors a checkpoint. A fixed
// interval anchors every interval steps; the adaptive policy anchors when
// the gap since the last checkpoint reaches the number of checkpoints so
// far, growing the gaps 1, 2, 3, ... so that k checkpoints cover ~k²/2
// steps — O(sqrt n) anchors and O(sqrt n) replay for any n.
func (r *Recorder) wantCheckpoint(i int) bool {
	if r.interval > 0 {
		return i%r.interval == 0
	}
	return r.sinceCP >= len(r.s.t.Checkpoints)
}
