// Package ttd is the omniscient time-travel backend: it turns a
// delta-encoded pt v2 trace into a randomly seekable recording. A Store
// walks the trace once at load, building three cheap indexes — the frame
// stack shape per step, a per-variable write log, and cumulative stdout
// offsets — and then answers StateAt(i) by decoding the nearest full-state
// checkpoint at or below i and applying at most `interval` deltas on top.
// With the recorder's adaptive checkpoint policy both the checkpoint bytes
// and the per-seek delta count are O(√n) in the number of steps.
//
// Reconstruction is a pure function of the step index: the same step always
// decodes the same checkpoint fresh and applies the same deltas in the same
// order, so a state reached by seeking backwards is byte-identical (under
// JSON encoding) to the state reached by replaying forwards. The write log
// doubles as the reverse-watchpoint engine: LastChange answers "when did
// this variable last change?" by binary search over the log, never by
// scanning reconstructed states.
package ttd

import (
	"fmt"

	"easytracker/internal/core"
	"easytracker/internal/pt"
)

// frameNode is one frame activation in the persistent stack the load walk
// threads through the trace. Each push allocates one node; each step points
// at its innermost node, so the full stack shape at any step is reachable
// without reconstruction. Distinct activations of the same function get
// distinct nodes, which is what lets the write log attribute a variable
// write to a specific activation.
type frameNode struct {
	// name is the frame's function name.
	name string
	// pos is the frame's position in the stack (entry frame = 0).
	pos int
	// inst is the activation's unique id (index into Store.instFn).
	inst int32
	// parent is the caller's node.
	parent *frameNode
}

// ventry is one entry of a variable's write log: at step the variable in
// activation inst (or the globals when inst is -1) was set to val, or
// deleted.
type ventry struct {
	step int32
	inst int32
	val  *core.Value
	del  bool
}

// Store is the seekable view over a v2 trace. It is not safe for concurrent
// use; the trackers built on it only touch it while the session is paused.
type Store struct {
	t *pt.TraceV2

	// depths[i] is the innermost frame's depth at step i (-1: empty stack).
	depths []int32
	// nodes[i] is the innermost frame activation at step i (nil: empty).
	nodes []*frameNode
	// instFn names the function of each activation id.
	instFn []string
	// out is the concatenated program output; outOff[i] is the cumulative
	// output length after step i.
	out    []byte
	outOff []int
	// index is the per-variable write log, entries ascending by step.
	index map[string][]ventry

	// Walk state, live only during load / recording.
	cur      *frameNode
	curLen   int
	nextInst int32

	// memo caches the last reconstruction so a forward replay pays one
	// delta per step instead of one checkpoint decode per step.
	memoPos   int
	memoR     *rstate
	memoState *core.State
}

// newStore returns an empty store wrapping t; the caller feeds steps
// through ingest.
func newStore(t *pt.TraceV2) *Store {
	return &Store{t: t, index: map[string][]ventry{}, memoPos: -1}
}

// FromV2 builds a Store from a decoded v2 trace, walking every delta once.
// The walk validates what pt.Validate cannot see without tracking the stack:
// pops beyond the stack floor, writes and line advances into dead frames,
// and checkpoints whose frame count disagrees with the delta walk (a torn
// or misanchored checkpoint). Violations yield a *pt.DecodeError.
func FromV2(t *pt.TraceV2) (*Store, error) {
	s := newStore(t)
	for i := range t.Steps {
		if err := s.ingest(i, &t.Steps[i]); err != nil {
			return nil, err
		}
	}
	for ci := range t.Checkpoints {
		cp := &t.Checkpoints[ci]
		var st core.State
		if err := st.UnmarshalJSON(cp.State); err != nil {
			return nil, &pt.DecodeError{Err: fmt.Errorf("ttd: checkpoint at step %d: %w", cp.Step, err)}
		}
		if got, want := len(st.Frame.Stack()), int(s.depths[cp.Step])+1; got != want {
			return nil, &pt.DecodeError{Err: fmt.Errorf(
				"ttd: checkpoint at step %d has %d frames, delta walk has %d", cp.Step, got, want)}
		}
	}
	return s, nil
}

// ingest appends step i to the walk: advances the persistent frame stack,
// logs variable writes, and extends the metadata arrays.
func (s *Store) ingest(i int, step *pt.StepV2) error {
	if d := step.Delta; d != nil {
		if d.Pop > s.curLen {
			return &pt.DecodeError{Err: fmt.Errorf("ttd: step %d pops %d of %d frames", i, d.Pop, s.curLen)}
		}
		for k := 0; k < d.Pop; k++ {
			s.cur = s.cur.parent
		}
		s.curLen -= d.Pop
		for _, p := range d.Push {
			s.cur = &frameNode{name: p.Name, pos: s.curLen, inst: s.nextInst, parent: s.cur}
			s.instFn = append(s.instFn, p.Name)
			s.nextInst++
			s.curLen++
		}
		for _, ln := range d.Lines {
			if ln.Depth < 0 || ln.Depth >= s.curLen {
				return &pt.DecodeError{Err: fmt.Errorf("ttd: step %d advances dead frame %d", i, ln.Depth)}
			}
		}
		for _, set := range d.Sets {
			inst := int32(-1)
			if set.F >= 0 {
				n := s.nodeAt(set.F)
				if n == nil {
					return &pt.DecodeError{Err: fmt.Errorf("ttd: step %d writes %q into dead frame %d", i, set.Name, set.F)}
				}
				inst = n.inst
			}
			s.index[set.Name] = append(s.index[set.Name], ventry{step: int32(i), inst: inst, val: d.Vals[set.V]})
		}
		for _, del := range d.Dels {
			inst := int32(-1)
			if del.F >= 0 {
				n := s.nodeAt(del.F)
				if n == nil {
					return &pt.DecodeError{Err: fmt.Errorf("ttd: step %d deletes %q from dead frame %d", i, del.Name, del.F)}
				}
				inst = n.inst
			}
			s.index[del.Name] = append(s.index[del.Name], ventry{step: int32(i), inst: inst, del: true})
		}
	}
	s.depths = append(s.depths, int32(s.curLen-1))
	s.nodes = append(s.nodes, s.cur)
	s.out = append(s.out, step.Out...)
	s.outOff = append(s.outOff, len(s.out))
	return nil
}

// nodeAt returns the walk's live frame node at stack position pos, or nil.
func (s *Store) nodeAt(pos int) *frameNode {
	if pos < 0 || pos >= s.curLen {
		return nil
	}
	n := s.cur
	for k := s.curLen - 1; k > pos; k-- {
		n = n.parent
	}
	return n
}

// Trace returns the underlying v2 trace.
func (s *Store) Trace() *pt.TraceV2 { return s.t }

// Len reports the number of recorded steps.
func (s *Store) Len() int { return len(s.t.Steps) }

// EventAt returns step i's event kind.
func (s *Store) EventAt(i int) string { return s.t.Steps[i].Event }

// LineAt returns step i's source line.
func (s *Store) LineAt(i int) int { return s.t.Steps[i].Line }

// FuncAt returns step i's innermost function name.
func (s *Store) FuncAt(i int) string { return s.t.Steps[i].Func }

// DepthAt returns the innermost frame's depth at step i (0 when the stack
// is empty, matching the full-state replayer's convention).
func (s *Store) DepthAt(i int) int {
	if i < 0 || i >= len(s.depths) || s.depths[i] < 0 {
		return 0
	}
	return int(s.depths[i])
}

// StdoutAt returns the cumulative program output through step i.
func (s *Store) StdoutAt(i int) string {
	if i < 0 || i >= len(s.outOff) {
		return ""
	}
	return string(s.out[:s.outOff[i]])
}

// StateAt reconstructs the full state at step i: the nearest checkpoint at
// or below i is decoded fresh and the deltas in (checkpoint, i] are applied
// in order. A forward replay hits the one-step memo and pays a single delta.
// The returned state is shared with the memo and must be treated as
// read-only, like every tracker snapshot.
func (s *Store) StateAt(i int) (*core.State, error) {
	if i < 0 || i >= len(s.t.Steps) {
		return nil, fmt.Errorf("ttd: step %d out of range [0, %d)", i, len(s.t.Steps))
	}
	if s.memoState != nil && i == s.memoPos {
		return s.memoState, nil
	}
	reason, err := s.reasonAt(i)
	if err != nil {
		return nil, err
	}
	ci := s.t.CheckpointAt(i)
	cpStep := -1
	if ci >= 0 {
		cpStep = s.t.Checkpoints[ci].Step
	}
	var r *rstate
	if s.memoR != nil && i == s.memoPos+1 && cpStep != i {
		// One step forward of the memo with no checkpoint anchored here:
		// clone and apply one delta. The clone starts from the same
		// checkpoint-plus-deltas prefix a cold reconstruction would use,
		// so the result is identical.
		r = s.memoR.clone()
		r.apply(s.t.Steps[i].Delta)
	} else {
		r = &rstate{}
		from := 0
		if ci >= 0 {
			var st core.State
			if err := st.UnmarshalJSON(s.t.Checkpoints[ci].State); err != nil {
				return nil, fmt.Errorf("ttd: checkpoint at step %d: %w", cpStep, err)
			}
			r = fromState(&st)
			from = cpStep + 1
		}
		for k := from; k <= i; k++ {
			r.apply(s.t.Steps[k].Delta)
		}
	}
	st := r.materialize(reason)
	s.memoPos, s.memoR, s.memoState = i, r, st
	return st, nil
}

// ReasonAt decodes step i's recorded pause reason (zero when the step
// carries none).
func (s *Store) ReasonAt(i int) (core.PauseReason, error) {
	if i < 0 || i >= len(s.t.Steps) {
		return core.PauseReason{}, fmt.Errorf("ttd: step %d out of range [0, %d)", i, len(s.t.Steps))
	}
	return s.reasonAt(i)
}

// reasonAt decodes step i's recorded pause reason.
func (s *Store) reasonAt(i int) (core.PauseReason, error) {
	raw := s.t.Steps[i].Reason
	if len(raw) == 0 {
		return core.PauseReason{}, nil
	}
	return core.DecodePauseReasonJSON(raw)
}

// VarAt resolves a variable reference parsed by core.ParseVarRef at step i
// straight from the write log, without reconstructing the state: the scope
// chain maps to the innermost activation at i then the globals, "::" to the
// globals, and a function name to its innermost live activation at i.
// Returns nil when the variable does not exist at that step.
func (s *Store) VarAt(i int, scope, name string) *core.Value {
	if i < 0 || i >= len(s.nodes) {
		return nil
	}
	entries := s.index[name]
	switch scope {
	case "::":
		if e := latest(entries, i, -1); e != nil && !e.del {
			return e.val
		}
	case "":
		if n := s.nodes[i]; n != nil {
			if e := latest(entries, i, n.inst); e != nil {
				if e.del {
					return nil
				}
				return e.val
			}
		}
		if e := latest(entries, i, -1); e != nil && !e.del {
			return e.val
		}
	default:
		for n := s.nodes[i]; n != nil; n = n.parent {
			if n.name == scope {
				if e := latest(entries, i, n.inst); e != nil && !e.del {
					return e.val
				}
				return nil
			}
		}
	}
	return nil
}

// LastChange answers a reverse watchpoint: the most recent write (or
// deletion) of expr at or before step `before`, located by binary search
// over the variable's write log. The expression is a core.ParseVarRef
// reference ("x", "::g", "fib:n", "globals.g"); a plain name resolves
// against the innermost activation at `before`, then the globals. When no
// live activation of a scoped reference exists at `before`, the most
// recent write in any past activation of that function answers.
// core.ErrUnknownVariable reports that the recording holds no matching
// write.
func (s *Store) LastChange(expr string, before int) (*core.VarChange, error) {
	scope, name, err := core.ParseVarRef(expr)
	if err != nil {
		return nil, err
	}
	if before >= len(s.t.Steps) {
		before = len(s.t.Steps) - 1
	}
	none := func() (*core.VarChange, error) {
		return nil, fmt.Errorf("%w: no recorded change of %q", core.ErrUnknownVariable, expr)
	}
	if before < 0 {
		return none()
	}
	entries := s.index[name]
	mk := func(e *ventry) *core.VarChange {
		ch := &core.VarChange{Step: int(e.step), Deleted: e.del, Val: e.val}
		if e.inst >= 0 {
			ch.Func = s.instFn[e.inst]
			ch.Var = ch.Func + ":" + name
		} else {
			ch.Var = "::" + name
		}
		return ch
	}
	switch scope {
	case "::":
		if e := latest(entries, before, -1); e != nil {
			return mk(e), nil
		}
	case "":
		if n := s.nodes[before]; n != nil {
			if e := latest(entries, before, n.inst); e != nil {
				return mk(e), nil
			}
		}
		if e := latest(entries, before, -1); e != nil {
			return mk(e), nil
		}
	default:
		for n := s.nodes[before]; n != nil; n = n.parent {
			if n.name == scope {
				if e := latest(entries, before, n.inst); e != nil {
					return mk(e), nil
				}
				break
			}
		}
		for idx := lastIdx(entries, before); idx >= 0; idx-- {
			if e := &entries[idx]; e.inst >= 0 && s.instFn[e.inst] == scope {
				return mk(e), nil
			}
		}
	}
	return none()
}

// lastIdx returns the index of the last entry with step <= before, or -1.
func lastIdx(entries []ventry, before int) int {
	lo, hi, best := 0, len(entries)-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if int(entries[mid].step) <= before {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// latest returns the most recent entry at or before `before` belonging to
// activation inst, or nil.
func latest(entries []ventry, before int, inst int32) *ventry {
	for idx := lastIdx(entries, before); idx >= 0; idx-- {
		if entries[idx].inst == inst {
			return &entries[idx]
		}
	}
	return nil
}
