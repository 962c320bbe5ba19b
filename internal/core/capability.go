package core

// StateProvider is implemented by trackers that expose the full inspection
// snapshot in one call (both built-in live trackers and the trace replayer
// do). Tools prefer it over assembling CurrentFrame + GlobalVariables +
// PauseReason by hand.
type StateProvider interface {
	// State returns the full snapshot (frames, globals, pause reason).
	// Its frames, variables and values may be shared with other results,
	// across pauses too, and must be treated as read-only.
	State() (*State, error)
}

// TrackerUnwrapper is implemented by tracker wrappers (middleware, future
// decorators) that want capability probing to see through them. As and
// CapabilitiesOf follow the chain.
type TrackerUnwrapper interface {
	// UnwrapTracker returns the wrapped tracker.
	UnwrapTracker() Tracker
}

// CapabilityGate is implemented by tracker proxies whose one concrete type
// carries every extension method but whose backing tracker may not provide
// them all — the remote client tracker is the canonical case: it forwards
// Registers() over the wire, but a MiniPy backend has none to forward. As
// consults the gate after a successful type assert, passing a nil pointer to
// the requested interface type ((*RegisterInspector)(nil), ...); returning
// false makes the proxy present exactly its backend's capability surface.
type CapabilityGate interface {
	// SupportsCapability reports whether the capability interface
	// identified by ptr (a nil *T for the requested interface T) is truly
	// provided. Unknown types should return true.
	SupportsCapability(ptr any) bool
}

// CapabilitySet reports which optional extension interfaces a tracker
// provides, so tools can adapt (or refuse early with a clear message)
// instead of scattering raw type asserts. It is JSON-serializable: a remote
// tracker session advertises its backend's set in the connection handshake.
type CapabilitySet struct {
	// Registers: the tracker implements RegisterInspector.
	Registers bool
	// Memory: the tracker implements MemoryInspector.
	Memory bool
	// Heap: the tracker implements HeapInspector.
	Heap bool
	// State: the tracker implements StateProvider.
	State bool
	// Stats: the tracker implements StatsProvider (instrument snapshots).
	Stats bool
	// Spans: the tracker implements SpanProvider (completed-span dumps).
	Spans bool
	// Interrupt: the tracker implements Interrupter (runs can be paused
	// from another goroutine).
	Interrupt bool
	// ConditionalBreak: the tracker implements ConditionalBreaker (probe
	// conditions are evaluated inferior-side before pausing).
	ConditionalBreak bool
	// TimeTravel: the tracker implements TimeTraveler (execution history is
	// recorded and the session can step backwards or seek to any step).
	TimeTravel bool
	// ReverseWatch: the tracker implements ReverseWatcher (reverse
	// watchpoints answered from the recording's delta index).
	ReverseWatch bool
}

// CapabilitiesOf probes tr (and anything it wraps) for the extension
// interfaces.
func CapabilitiesOf(tr Tracker) CapabilitySet {
	var c CapabilitySet
	_, c.Registers = As[RegisterInspector](tr)
	_, c.Memory = As[MemoryInspector](tr)
	_, c.Heap = As[HeapInspector](tr)
	_, c.State = As[StateProvider](tr)
	_, c.Stats = As[StatsProvider](tr)
	_, c.Spans = As[SpanProvider](tr)
	_, c.Interrupt = As[Interrupter](tr)
	_, c.ConditionalBreak = As[ConditionalBreaker](tr)
	_, c.TimeTravel = As[TimeTraveler](tr)
	_, c.ReverseWatch = As[ReverseWatcher](tr)
	return c
}

// As returns tr viewed as the extension interface T, following
// TrackerUnwrapper chains. It is the typed accessor tools use instead of a
// raw type assert:
//
//	if regs, ok := core.As[core.RegisterInspector](tr); ok { ... }
func As[T any](tr Tracker) (T, bool) {
	for tr != nil {
		if v, ok := tr.(T); ok {
			// A gated proxy can decline interfaces its backend lacks
			// even though its concrete type has the methods.
			if g, gated := tr.(CapabilityGate); !gated || g.SupportsCapability((*T)(nil)) {
				return v, true
			}
		}
		u, ok := tr.(TrackerUnwrapper)
		if !ok {
			break
		}
		tr = u.UnwrapTracker()
	}
	var zero T
	return zero, false
}
