package query

import "easytracker/internal/core"

// Gate is the arming state every probe kind shares: the compiled condition
// (nil is always true), the ignore credits left and the one-shot latch. A
// candidate hit first tests the gate with Open; a hit that will pause then
// spends it with Fire. Reverse replay tests probes but never spends them,
// so it calls Open alone.
type Gate struct {
	cond    *Program
	ignore  int
	oneShot bool
	spent   bool
}

// NewGate compiles a probe's BreakConfig into its gate. A condition that
// fails to compile is an ErrBadQuery error.
func NewGate(bc core.BreakConfig) (Gate, error) {
	g := Gate{ignore: bc.IgnoreHits, oneShot: bc.OneShot}
	if bc.Condition != "" {
		p, err := Compile(bc.Condition)
		if err != nil {
			return Gate{}, err
		}
		g.cond = p
	}
	return g, nil
}

// Open reports whether the probe is still armed and its condition holds at
// v. It spends nothing.
func (g *Gate) Open(v EventView) bool {
	return !g.spent && (g.cond == nil || g.cond.Match(v))
}

// Fire spends one hit that passed Open: an ignore credit, reporting no
// pause, or else the one-shot latch, reporting the pause.
func (g *Gate) Fire() bool {
	if g.ignore > 0 {
		g.ignore--
		return false
	}
	if g.oneShot {
		g.spent = true
	}
	return true
}
