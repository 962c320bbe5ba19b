package ttd

import (
	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/query"
)

// Probes is a tracker's table of armed probes, each with its query.Gate,
// and the one pause classifier over it (Classify). The live MiniPy tracker
// calls it at the events the hook is delivered; every replay calls it at
// every recorded step it moves onto (Replay forward, PauseBack in reverse). C is the state
// a live tracker keeps next to each watch (its hot-path caches);
// replay-only trackers use struct{}.
type Probes[C any] struct {
	Lines   []LineBreak
	Funcs   []FuncBreak
	Tracked map[string]*query.Gate
	Watches []*Watch[C]

	// step is the scratch of Replay and PauseBack, made on first use: a
	// replay classifies its steps without allocating, and a table that is
	// never replayed carries none.
	step *step[C]
}

// LineBreak is an armed line breakpoint; an empty File matches any file.
type LineBreak struct {
	File     string
	Line     int
	MaxDepth int
	query.Gate
}

// FuncBreak is an armed function-entry breakpoint.
type FuncBreak struct {
	Name     string
	MaxDepth int
	query.Gate
}

// Watch is an armed watchpoint: ID as armed, and the Scope and Name
// core.ParseVarRef read from it. Snap is the watch's snapshot, the value
// its next change is judged against (nil: undefined); Classify keeps it.
// Live is the live tracker's state for it.
type Watch[C any] struct {
	ID          string
	Scope, Name string
	query.Gate
	Snap *core.Value
	Live C
}

// Resolver reads the values of the event being classified, live or
// recorded: the live MiniPy tracker's view, or Timeline.VarAt on a replay.
type Resolver[C any] interface {
	// Watched is w's variable at the event, nil when it is undefined. A
	// resolver that can prove the value is still w.Snap returns w.Snap
	// itself, so nothing is converted: the classifier's "unchanged" test
	// is pointer equality.
	Watched(w *Watch[C]) *core.Value
	// Returned is the value a return event returns.
	Returned() *core.Value
}

// Event is the event Classify decides on, live or recorded. The probe
// tests read where it is from its fields; its gates evaluate their
// conditions against View, and Values reads its values.
type Event[C any] struct {
	// Kind is query.EventLine, EventCall or EventReturn. Func is the
	// innermost frame's function and Depth that frame's depth.
	Kind, Func  string
	Line, Depth int
	View        query.EventView
	Values      Resolver[C]
}

// depthOK is the paper's maxdepth rule: fire only strictly below a
// positive maximum depth.
func depthOK(maxDepth, depth int) bool {
	return maxDepth <= 0 || depth < maxDepth
}

// Arm adds p to the table with its gate, compiled from p.BreakConfig by
// query.NewGate. It returns the new watch of a ProbeWatch, nil for other
// kinds; a watch ID core.ParseVarRef rejects arms nothing. The caller
// takes the new watch's snapshot where it armed it. Tracking a function
// again replaces its gate.
func (ps *Probes[C]) Arm(p core.Probe, g query.Gate) (*Watch[C], error) {
	switch p.Kind {
	case core.ProbeLine:
		ps.Lines = append(ps.Lines, LineBreak{File: p.File, Line: p.Line, MaxDepth: p.MaxDepth, Gate: g})
	case core.ProbeFunc:
		ps.Funcs = append(ps.Funcs, FuncBreak{Name: p.Function, MaxDepth: p.MaxDepth, Gate: g})
	case core.ProbeTrack:
		if ps.Tracked == nil {
			ps.Tracked = map[string]*query.Gate{}
		}
		tg := g // only a tracked entry moves its gate to the heap
		ps.Tracked[p.Function] = &tg
	case core.ProbeWatch:
		scope, name, err := core.ParseVarRef(p.VarID)
		if err != nil {
			return nil, err
		}
		w := &Watch[C]{ID: p.VarID, Scope: scope, Name: name, Gate: g}
		ps.Watches = append(ps.Watches, w)
		return w, nil
	default:
		return nil, core.ErrUnsupported
	}
	return nil, nil
}

// Armed reports whether any probe is armed.
func (ps *Probes[C]) Armed() bool {
	return len(ps.Watches) > 0 || len(ps.Lines) > 0 || len(ps.Funcs) > 0 || len(ps.Tracked) > 0
}

// Classify is the one pause decision for a move onto event e. It reports
// whether a probe pauses there, storing the pause into r; a miss writes
// nothing. The first in priority order pauses: watches, tracked entry,
// function breakpoints, tracked exit, line breakpoints (on line events
// only), then, when the caller set stop, the STEP of a Step or Next.
//
// later is nil for a forward move. The probe that pauses spends its gate
// with Fire: an ignore credit (no pause), or else its one-shot latch. A
// watch pauses when core.WatchChanged(w.Snap, value) holds and its gate is
// open and fires. Its snapshot advances at every event its gate is open,
// an ignored hit and an undefined variable too, and is held while the gate
// is closed, when only an empty one is filled (DESIGN.md §8). The first
// watch that pauses ends the sweep: another watch changed at the same
// event reports at the next one.
//
// A reverse move passes in later the values of the step after e. Gates
// are tested and never spent, no snapshot moves, and a watch pauses where
// its variable changed between the two, with the crossing-order Old
// (later's value) and New (e's).
func (ps *Probes[C]) Classify(e *Event[C], later Resolver[C], stop bool, r *core.PauseReason) bool {
	fwd := later == nil
	for _, w := range ps.Watches {
		if !w.Open(e.View) {
			if w.Snap == nil && fwd {
				w.Snap = e.Values.Watched(w)
			}
			continue
		}
		now, old := e.Values.Watched(w), w.Snap
		if fwd {
			if now == old {
				continue
			}
			w.Snap = now
			if !core.WatchChanged(old, now) || !w.Fire() {
				continue
			}
		} else if old = later.Watched(w); !core.WatchChanged(now, old) {
			continue
		}
		return pause(r, e, core.PauseWatch, "", w.ID, old, now)
	}
	switch e.Kind {
	case query.EventCall:
		if g := ps.Tracked[e.Func]; g != nil && hit(g, e.View, fwd) {
			return pause(r, e, core.PauseCall, e.Func, "", nil, nil)
		}
		for i := range ps.Funcs {
			if b := &ps.Funcs[i]; b.Name == e.Func && depthOK(b.MaxDepth, e.Depth) && hit(&b.Gate, e.View, fwd) {
				return pause(r, e, core.PauseBreakpoint, e.Func, "", nil, nil)
			}
		}
	case query.EventReturn:
		if g := ps.Tracked[e.Func]; g != nil && hit(g, e.View, fwd) {
			pause(r, e, core.PauseReturn, e.Func, "", nil, nil)
			r.ReturnValue = e.Values.Returned()
			return true
		}
	default:
		for i := range ps.Lines {
			b := &ps.Lines[i]
			if b.Line == e.Line && depthOK(b.MaxDepth, e.Depth) && (b.File == "" || b.File == e.View.File()) && hit(&b.Gate, e.View, fwd) {
				return pause(r, e, core.PauseBreakpoint, "", "", nil, nil)
			}
		}
	}
	return stop && pause(r, e, core.PauseStep, "", "", nil, nil)
}

// hit tests gate g at v and, on a forward move, spends it.
func hit(g *query.Gate, v query.EventView, fwd bool) bool {
	return g.Open(v) && (!fwd || g.Fire())
}

// pause stores a pause of type typ at e's position into r: fn is a call's
// or a return's function, id, old and now a watch's variable and values.
func pause[C any](r *core.PauseReason, e *Event[C], typ core.PauseReasonType, fn, id string, old, now *core.Value) bool {
	*r = core.PauseReason{Type: typ, Function: fn, Variable: id, Old: old, New: now}
	r.File, r.Line = e.View.File(), e.Line
	return true
}

// Replay is Classify at recorded step pos of tl, reached by a forward move;
// each watch reads its variable with Timeline.VarAt.
func (ps *Probes[C]) Replay(tl Timeline, file string, pos int, stop bool, r *core.PauseReason) bool {
	return ps.Classify(&ps.at(tl, file, pos).ev, nil, stop, r)
}

// PauseBack is Classify at recorded step pos of tl, reached by a reverse
// move from pos+1.
func (ps *Probes[C]) PauseBack(tl Timeline, file string, pos int) (r core.PauseReason, ok bool) {
	s := ps.at(tl, file, pos)
	ok = ps.Classify(&s.ev, &s.later, false, &r)
	return r, ok
}

// Baseline takes every watch's snapshot at recorded step pos. A replay that
// owns its timeline calls it wherever it lands other than by a forward
// move: on Start, a seek and every reverse move.
func (ps *Probes[C]) Baseline(tl Timeline, pos int) {
	for _, w := range ps.Watches {
		w.Snap = tl.VarAt(pos, w.Scope, w.Name)
	}
}

// vars reads the values of recorded step pos of tl. Timeline.VarAt
// returns the very pointer of an earlier step for an unchanged variable.
type vars[C any] struct {
	tl  Timeline
	pos int
}

// Watched implements Resolver.
func (s *vars[C]) Watched(w *Watch[C]) *core.Value { return s.tl.VarAt(s.pos, w.Scope, w.Name) }

// Returned implements Resolver: the return value recorded with the step.
func (s *vars[C]) Returned() *core.Value {
	r, _ := s.tl.ReasonAt(s.pos)
	return r.ReturnValue
}

// step is a recorded step as Classify sees it: the condition view over its
// recorded metadata, its values, the Event over both, and the values of the
// step after it, which a reverse move is judged against.
type step[C any] struct {
	view       query.StateView
	now, later vars[C]
	ev         Event[C]
}

// at points the table's scratch step at step pos of tl.
func (ps *Probes[C]) at(tl Timeline, file string, pos int) *step[C] {
	if ps.step == nil {
		ps.step = new(step[C])
	}
	s := ps.step
	s.view = query.StateView{
		EventName: QueryEvent(tl.EventAt(pos)), LineNo: tl.LineAt(pos), FileName: file,
		FuncName: tl.FuncAt(pos), Source: tl, Step: pos, DepthNo: tl.DepthAt(pos),
	}
	s.now, s.later = vars[C]{tl, pos}, vars[C]{tl, pos + 1}
	s.ev = Event[C]{Kind: s.view.EventName, Func: s.view.FuncName, Line: s.view.LineNo,
		Depth: s.view.DepthNo, View: &s.view, Values: &s.now}
	return s
}

// QueryEvent maps a recorded event onto the query language's event
// vocabulary: everything but a call or a return reads as a line event.
func QueryEvent(ev string) string {
	switch ev {
	case pt.EventCall:
		return query.EventCall
	case pt.EventReturn:
		return query.EventReturn
	default:
		return query.EventLine
	}
}
