package ttd

import (
	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/query"
)

// Probes is a tracker's table of armed probes, each with its query.Gate.
// The live MiniPy tracker checks it at every trace event; PauseAt
// classifies a recorded step against it for every replay. C is the state a
// live tracker keeps next to each watch (its hot-path caches); replay-only
// trackers use struct{}.
type Probes[C any] struct {
	Lines   []LineBreak
	Funcs   []FuncBreak
	Tracked map[string]*query.Gate
	Watches []*Watch[C]

	// view is PauseAt's reusable condition view, so classifying a step
	// allocates nothing.
	view query.StateView
}

// LineBreak is an armed line breakpoint.
type LineBreak struct {
	File     string
	Line     int
	MaxDepth int
	query.Gate
}

// At reports whether the breakpoint targets line of file at depth. An
// empty File matches any file.
func (b *LineBreak) At(file string, line, depth int) bool {
	return b.Line == line && (b.File == "" || b.File == file) && depthOK(b.MaxDepth, depth)
}

// FuncBreak is an armed function-entry breakpoint.
type FuncBreak struct {
	Name     string
	MaxDepth int
	query.Gate
}

// At reports whether the breakpoint targets a call of fn at depth.
func (b *FuncBreak) At(fn string, depth int) bool {
	return b.Name == fn && depthOK(b.MaxDepth, depth)
}

// Watch is an armed watchpoint: ID as armed, and the Scope and Name
// core.ParseVarRef read from it. Live is the live tracker's state for it.
type Watch[C any] struct {
	ID          string
	Scope, Name string
	query.Gate
	Live C
}

// depthOK is the paper's maxdepth rule: fire only strictly below a
// positive maximum depth.
func depthOK(maxDepth, depth int) bool {
	return maxDepth <= 0 || depth < maxDepth
}

// Arm adds p to the table with its gate, compiled from p.BreakConfig by
// query.NewGate. It returns the new watch of a ProbeWatch, nil for other
// kinds; a watch ID core.ParseVarRef rejects arms nothing. Tracking a
// function again replaces its gate.
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

// PauseAt is the replay classifier: would an armed probe pause at recorded
// step pos, reached from the adjacent step from? from < pos is a forward
// move, which spends the gate of the probe that pauses (an ignore credit or
// a one-shot latch); from > pos is a reverse move, which tests gates and
// spends nothing. The priority is the live tracker's: watches, tracked
// entry, function breakpoints, tracked exit, then line breakpoints on line
// events only. A watch fires on core.WatchChanged read in forward time, and
// its Old is the value at from.
func (ps *Probes[C]) PauseAt(tl Timeline, file string, pos, from int) (core.PauseReason, bool) {
	ev, line, fn, depth := tl.EventAt(pos), tl.LineAt(pos), tl.FuncAt(pos), tl.DepthAt(pos)
	ps.view = query.StateView{
		EventName: QueryEvent(ev), LineNo: line, FileName: file, FuncName: fn,
		Source: tl, Step: pos, DepthNo: depth,
	}
	v := &ps.view
	forward := from < pos
	hit := func(g *query.Gate) bool { return g.Open(v) && (!forward || g.Fire()) }

	for _, w := range ps.Watches {
		if !w.Open(v) {
			continue
		}
		old, now := tl.VarAt(from, w.Scope, w.Name), tl.VarAt(pos, w.Scope, w.Name)
		before, after := old, now
		if !forward {
			before, after = now, old
		}
		if core.WatchChanged(before, after) && (!forward || w.Fire()) {
			return core.PauseReason{
				Type: core.PauseWatch, Variable: w.ID, Old: old, New: now,
				File: file, Line: line,
			}, true
		}
	}
	switch ev {
	case pt.EventCall:
		if g := ps.Tracked[fn]; g != nil && hit(g) {
			return core.PauseReason{Type: core.PauseCall, Function: fn, File: file, Line: line}, true
		}
		for i := range ps.Funcs {
			if b := &ps.Funcs[i]; b.At(fn, depth) && hit(&b.Gate) {
				return core.PauseReason{Type: core.PauseBreakpoint, Function: fn, File: file, Line: line}, true
			}
		}
	case pt.EventReturn:
		if g := ps.Tracked[fn]; g != nil && hit(g) {
			r, _ := tl.ReasonAt(pos)
			return core.PauseReason{
				Type: core.PauseReturn, Function: fn, ReturnValue: r.ReturnValue,
				File: file, Line: line,
			}, true
		}
	default:
		for i := range ps.Lines {
			if b := &ps.Lines[i]; b.At(file, line, depth) && hit(&b.Gate) {
				return core.PauseReason{Type: core.PauseBreakpoint, File: file, Line: line}, true
			}
		}
	}
	return core.PauseReason{}, false
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
