package tracetracker

import (
	"easytracker/internal/core"
	"easytracker/internal/ttd"
)

// Reverse execution over the recorded trace — the paper's future-work item
// backed by its preliminary RR-based tracker ("allowing reverse execution
// or deterministic visualization"). Because the trace tracker navigates an
// immutable recording, stepping backwards is exact and deterministic; on
// the delta-encoded format every landing reconstructs its state from the
// nearest checkpoint, so a backward state is byte-identical to the forward
// replay's. The moves are the embedded ttd.Travel's, as on the live
// trackers' recordings; reverse execution resurrects a finished replay.

// Timeline implements ttd.Host: a replay's program has always finished.
func (t *Tracker) Timeline() (ttd.Timeline, bool, bool) { return t.tl, t.started, true }

// TravelGuard implements ttd.Host.
func (t *Tracker) TravelGuard(string) error {
	if !t.loaded {
		return core.ErrNoProgram
	}
	return nil
}

// TravelErr implements ttd.Host.
func (t *Tracker) TravelErr(op string, err error) error { return t.werr(op, err) }

// Land implements ttd.Host, for Start and every move: the replay runs
// again, paused at step pos, with every watch snapshot re-baselined there.
func (t *Tracker) Land(tl ttd.Timeline, pos int, r core.PauseReason, last int) error {
	t.reason, t.lastLine, t.exited = r, last, false
	t.probes.Baseline(tl, pos)
	return nil
}

// PauseBack implements ttd.Reverser with the replay's probe table, which
// spends no ignore count or one-shot latch in reverse.
func (t *Tracker) PauseBack(tl ttd.Timeline, pos int) (core.PauseReason, bool) {
	return t.probes.PauseBack(tl, t.file, pos)
}
