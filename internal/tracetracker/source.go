package tracetracker

import (
	"fmt"

	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/ttd"
)

// v1source adapts a v0/v1 full-state-per-step trace to ttd.Timeline, the
// interface a *ttd.Store implements for the delta format, so the replay
// engine treats both formats alike.
type v1source struct {
	tr *pt.Trace
}

func (s *v1source) Len() int             { return len(s.tr.Steps) }
func (s *v1source) EventAt(i int) string { return s.tr.Steps[i].Event }
func (s *v1source) LineAt(i int) int     { return s.tr.Steps[i].Line }
func (s *v1source) FuncAt(i int) string  { return s.tr.Steps[i].Func }

func (s *v1source) DepthAt(i int) int {
	st := s.tr.Steps[i].State
	if st == nil || st.Frame == nil {
		return 0
	}
	return st.Frame.Depth
}

func (s *v1source) StateAt(i int) (*core.State, error) { return s.tr.Steps[i].State, nil }

func (s *v1source) ReasonAt(i int) (core.PauseReason, error) {
	if st := s.tr.Steps[i].State; st != nil {
		return st.Reason, nil
	}
	return core.PauseReason{}, nil
}

func (s *v1source) VarAt(i int, scope, name string) *core.Value {
	if i < 0 || i >= len(s.tr.Steps) {
		return nil
	}
	st := s.tr.Steps[i].State
	if st == nil {
		return nil
	}
	v, _, _ := st.Lookup(scope, name)
	return v
}

func (s *v1source) StdoutAt(i int) string { return s.tr.Steps[i].Stdout }

// LastChange on a v1 trace has no write log to consult; it scans the
// recorded full states backwards, comparing the variable's resolution
// between consecutive steps. Correct, but O(steps): the delta format
// exists so this query does not have to do this.
func (s *v1source) LastChange(expr string, before int) (*core.VarChange, error) {
	scope, name, err := core.ParseVarRef(expr)
	if err != nil {
		return nil, err
	}
	// The terminal "finished" step carries no state, so no write either.
	before = min(before, ttd.Head(s))
	valAt := func(i int) (*core.Value, string, bool) {
		if i < 0 {
			return nil, "", false
		}
		st := s.tr.Steps[i].State
		if st == nil {
			return nil, "", false
		}
		return st.Lookup(scope, name)
	}
	for k := before; k >= 0; k-- {
		vk, fnk, okk := valAt(k)
		vp, _, okp := valAt(k - 1)
		if okk == okp && (!okk || valueEq(vk, vp)) {
			continue
		}
		ch := &core.VarChange{Step: k, Deleted: !okk, Val: vk, Func: fnk}
		switch {
		case okk && fnk != "":
			ch.Var = fnk + ":" + name
		case okk:
			ch.Var = "::" + name
		default:
			ch.Var = expr
		}
		return ch, nil
	}
	return nil, fmt.Errorf("%w: no recorded change of %q", core.ErrUnknownVariable, expr)
}

func valueEq(a, b *core.Value) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.Equal(b)
}
