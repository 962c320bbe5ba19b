package query

import "easytracker/internal/core"

// StateView adapts a recorded core.State snapshot (a pt trace step, a remote
// status, an et-invariant probe point) into an EventView. Unlike the live
// tracker views, the frames are already materialized; the view only walks
// them.
type StateView struct {
	// EventName is "line", "call", "return" (or a trace-specific kind).
	EventName string
	// LineNo and FileName position the event.
	LineNo   int
	FileName string
	// FuncName is the innermost frame's function; derived from State when
	// empty.
	FuncName string
	// State is the paused snapshot; may be nil (all variables Missing).
	State *core.State
	// Source, when set and State is nil, materializes recorded step Step
	// on first use. Trace replays hand their recording here so conditions
	// that never touch variables never pay for a state reconstruction.
	Source StateSource
	Step   int
	// DepthNo, when Source is set, answers Depth without materializing
	// the state (replay metadata records depths per step).
	DepthNo int
}

// StateSource reconstructs the snapshot of a recorded step.
type StateSource interface {
	StateAt(i int) (*core.State, error)
}

// state returns the snapshot, materializing it through Source on demand.
func (v *StateView) state() *core.State {
	if v.State == nil && v.Source != nil {
		v.State, _ = v.Source.StateAt(v.Step)
		v.Source = nil
	}
	return v.State
}

// Line implements EventView.
func (v *StateView) Line() int { return v.LineNo }

// Depth implements EventView: the innermost frame's depth (entry = 0).
func (v *StateView) Depth() int {
	if v.State == nil && v.Source != nil {
		return v.DepthNo
	}
	if v.State == nil || v.State.Frame == nil {
		return 0
	}
	return v.State.Frame.Depth
}

// Event implements EventView.
func (v *StateView) Event() string { return v.EventName }

// Function implements EventView.
func (v *StateView) Function() string {
	if v.FuncName != "" {
		return v.FuncName
	}
	if st := v.state(); st != nil && st.Frame != nil {
		return st.Frame.Name
	}
	return ""
}

// File implements EventView.
func (v *StateView) File() string { return v.FileName }

// Var implements EventView over the snapshot by core.State.Lookup.
func (v *StateView) Var(scope, name string) Scalar {
	st := v.state()
	if st == nil {
		return Missing
	}
	val, _, _ := st.Lookup(scope, name)
	return ScalarFromValue(val)
}

// FrameVar implements EventView: frame idx counted from the innermost
// frame outward.
func (v *StateView) FrameVar(idx int, name string) Scalar {
	if v.state() == nil {
		return Missing
	}
	fr := v.State.Frame
	for ; fr != nil && idx > 0; idx-- {
		fr = fr.Parent
	}
	if fr == nil {
		return Missing
	}
	if va := fr.Lookup(name); va != nil {
		return ScalarFromValue(va.Value)
	}
	return Missing
}

// ScalarFromValue reduces an abstract core.Value to the evaluator's Scalar:
// primitives carry their payload, refs are followed, containers reduce to
// their length, None maps to KNone, and everything else (structs,
// functions, invalid pointers) is KOther. A nil value is Missing.
func ScalarFromValue(val *core.Value) Scalar {
	for val != nil && val.Kind == core.Ref {
		val = val.Deref()
	}
	if val == nil {
		return Missing
	}
	switch val.Kind {
	case core.Primitive:
		switch c := val.Content.(type) {
		case int64:
			return Scalar{Kind: KInt, I: c}
		case float64:
			return Scalar{Kind: KFloat, F: c}
		case bool:
			return Scalar{Kind: KBool, B: c}
		case string:
			return Scalar{Kind: KStr, S: c}
		}
		return Scalar{Kind: KOther}
	case core.None:
		return Scalar{Kind: KNone}
	case core.List:
		return Scalar{Kind: KList, I: int64(len(val.Elems()))}
	case core.Dict:
		return Scalar{Kind: KDict, I: int64(len(val.Entries()))}
	default:
		return Scalar{Kind: KOther}
	}
}
