package pytracker

import (
	"easytracker/internal/core"
	"easytracker/internal/minipy"
	"easytracker/internal/query"
)

// pyView is the live interpreter state at one trace event as the probe
// classifier sees it: its condition view and its resolver. The tracker
// holds a single pyView by value and reuses it for every event, so the
// non-matching path of a probe allocates nothing: variable reads resolve
// straight off the RTFrame scope chain, objScalar reduces a MiniPy object
// to a by-value Scalar (containers reduce to their length) without
// converting to core.Value, and a watched variable is converted only when
// its epoch test cannot vouch for it.
type pyView struct {
	t   *Tracker
	fr  *minipy.RTFrame
	ev  minipy.Event
	ret *minipy.Object
}

// Returned implements ttd.Resolver.
func (v *pyView) Returned() *core.Value { return minipy.NewConverter(v.t.interp).Convert(v.ret) }

// Line implements query.EventView.
func (v *pyView) Line() int { return v.fr.Line }

// Depth implements query.EventView.
func (v *pyView) Depth() int { return v.fr.Depth }

// Event implements query.EventView.
func (v *pyView) Event() string {
	switch v.ev {
	case minipy.EventCall:
		return query.EventCall
	case minipy.EventReturn:
		return query.EventReturn
	default:
		return query.EventLine
	}
}

// Function implements query.EventView.
func (v *pyView) Function() string { return v.fr.Name }

// File implements query.EventView.
func (v *pyView) File() string { return v.t.file }

// Var implements query.EventView through the tracker's resolveVar, the same
// scope rules watchpoints use.
func (v *pyView) Var(scope, name string) query.Scalar {
	obj, ok := v.t.resolveVar(v.fr, scope, name)
	if !ok {
		return query.Missing
	}
	return objScalar(obj)
}

// FrameVar implements query.EventView: frame 0 is the innermost frame.
func (v *pyView) FrameVar(idx int, name string) query.Scalar {
	fr := v.fr
	for ; fr != nil && idx > 0; idx-- {
		fr = fr.Parent
	}
	if fr == nil {
		return query.Missing
	}
	obj, ok := fr.Locals.Get(name)
	if !ok {
		return query.Missing
	}
	return objScalar(obj)
}

// objScalar reduces a MiniPy object to the evaluator's Scalar without
// allocating: primitives copy their payload, containers carry only their
// length, functions/classes/instances are opaque KOther.
func objScalar(o *minipy.Object) query.Scalar {
	switch o.Kind {
	case minipy.OInt:
		return query.Scalar{Kind: query.KInt, I: o.I}
	case minipy.OFloat:
		return query.Scalar{Kind: query.KFloat, F: o.F}
	case minipy.OBool:
		return query.Scalar{Kind: query.KBool, B: o.B}
	case minipy.OStr:
		return query.Scalar{Kind: query.KStr, S: o.S}
	case minipy.ONone:
		return query.Scalar{Kind: query.KNone}
	case minipy.OList, minipy.OTuple:
		return query.Scalar{Kind: query.KList, I: int64(len(o.L))}
	case minipy.ODict:
		return query.Scalar{Kind: query.KDict, I: int64(o.D.Len())}
	default:
		return query.Scalar{Kind: query.KOther}
	}
}
