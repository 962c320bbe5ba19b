package minipy

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// freshReach is ReachableEpoch without the memo: a plain walk over the same
// edges (list/tuple elements, dict values, instance attributes, bound
// receivers) with its own visited set.
func freshReach(o *Object, seen map[*Object]bool) uint64 {
	if !isContainer(o) {
		return o.Epoch
	}
	if seen[o] {
		return 0
	}
	seen[o] = true
	max := o.Epoch
	for _, c := range children(o) {
		if m := freshReach(c, seen); m > max {
			max = m
		}
	}
	return max
}

func isContainer(o *Object) bool {
	switch o.Kind {
	case OList, OTuple, ODict, OInstance, OMethod:
		return true
	}
	return false
}

// children lists the objects ReachableEpoch walks into from o.
func children(o *Object) []*Object {
	switch o.Kind {
	case OList, OTuple:
		return o.L
	case ODict:
		var out []*Object
		for _, hk := range o.D.keys {
			out = append(out, o.D.vobj[hk])
		}
		return out
	case OInstance:
		var out []*Object
		for _, hk := range o.Attrs.keys {
			out = append(out, o.Attrs.vobj[hk])
		}
		return out
	case OMethod:
		if o.Self != nil {
			return []*Object{o.Self}
		}
	}
	return nil
}

// liveContainers collects, in depth-first pre-order, every container
// reachable from any live frame's locals or from the globals.
func liveContainers(in *Interp, fr *RTFrame) []*Object {
	var out []*Object
	seen := map[*Object]bool{}
	var visit func(o *Object)
	visit = func(o *Object) {
		if o == nil || !isContainer(o) || seen[o] {
			return
		}
		seen[o] = true
		out = append(out, o)
		for _, c := range children(o) {
			visit(c)
		}
	}
	scopes := []*Scope{in.Globals}
	for f := fr; f != nil; f = f.Parent {
		scopes = append(scopes, f.Locals)
	}
	for _, s := range scopes {
		for _, n := range s.names {
			o, _ := s.Get(n)
			visit(o)
		}
	}
	return out
}

// TestReachableEpochMemoMatchesFreshWalk pins the write barrier's
// completeness: the ReachableEpoch memo is keyed on the heap clock, which
// only stamp advances, so a container write that skipped stamp would leave a
// stale memo behind. At every trace event of every program, on both engines,
// each live container's ReachableEpoch must equal a walk that ignores the
// memo. testdata/writebarriers.py adds one write through every barrier
// site. Containers are queried parents-first on even events and
// children-first on odd ones, so both root memos and the interior-node reuse
// are checked against the fresh walk.
func TestReachableEpochMemoMatchesFreshWalk(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 13 {
		t.Fatalf("expected the 13 testdata programs, found %d", len(files))
	}
	files = append(files, filepath.Join("testdata", "writebarriers.py"))
	type prog struct{ name, src string }
	var progs []prog
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{filepath.Base(f), string(src)})
	}
	r := rand.New(rand.NewSource(1234))
	for i := 0; i < 30; i++ {
		progs = append(progs, prog{fmt.Sprintf("list%02d.py", i), genListProgram(r)})
	}
	for _, eng := range []Engine{EngineVM, EngineAST} {
		checked := 0
		for _, p := range progs {
			name := p.name
			mod, err := Parse(name, p.src)
			if err != nil {
				t.Fatalf("%s: parse: %v", name, err)
			}
			in := NewInterp(mod)
			in.SetEngine(eng)
			in.MaxSteps = 60_000
			events := 0
			in.SetTrace(func(fr *RTFrame, ev Event, _ *Object) error {
				objs := liveContainers(in, fr)
				if events%2 == 1 {
					for i, j := 0, len(objs)-1; i < j; i, j = i+1, j-1 {
						objs[i], objs[j] = objs[j], objs[i]
					}
				}
				events++
				for _, o := range objs {
					got := in.ReachableEpoch(o)
					if want := freshReach(o, map[*Object]bool{}); got != want {
						t.Fatalf("engine %v, %s, %s event at line %d: ReachableEpoch(%s) = %d, fresh walk = %d",
							eng, name, ev, fr.Line, o.Repr(), got, want)
					}
					checked++
				}
				return nil
			})
			if _, err := in.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if checked < 1000 {
			t.Fatalf("engine %v: only %d container checks; the corpus no longer exercises the memo", eng, checked)
		}
	}
}

// TestReachableEpochConstantTime checks the memo's cost model without timing:
// a loop that only rebinds locals walks a 1000-element list once, however
// many lines it runs, and one append to an unrelated container costs exactly
// one more walk. visitStamp counts walks.
func TestReachableEpochConstantTime(t *testing.T) {
	const src = `big = []
i = 0
while i < 1000:
    big.append(i)
    i = i + 1
other = []

def spin():
    j = 0
    while j < 5000:
        j = j + 1

spin()
other.append(1)
spin()
`
	for _, eng := range []Engine{EngineVM, EngineAST} {
		mod, err := Parse("spin.py", src)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInterp(mod)
		in.SetEngine(eng)
		var big *Object
		var walks, lines [3]int
		phase := 0
		in.SetTrace(func(fr *RTFrame, ev Event, _ *Object) error {
			if fr.Name != "spin" {
				return nil
			}
			if ev == EventCall {
				phase++
				big, _ = in.Globals.Get("big")
			}
			before := in.visitStamp
			got := in.ReachableEpoch(big)
			if in.visitStamp != before {
				walks[phase]++
			}
			if want := freshReach(big, map[*Object]bool{}); got != want {
				t.Fatalf("engine %v: ReachableEpoch(big) = %d, fresh walk = %d", eng, got, want)
			}
			if ev == EventLine {
				lines[phase]++
			}
			return nil
		})
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		if len(big.L) != 1000 {
			t.Fatalf("engine %v: big has %d elements", eng, len(big.L))
		}
		for p := 1; p <= 2; p++ {
			if lines[p] < 10_000 {
				t.Fatalf("engine %v: spin call %d ran %d lines, want at least 10000", eng, p, lines[p])
			}
			if walks[p] != 1 {
				t.Errorf("engine %v: spin call %d walked big %d times, want 1", eng, p, walks[p])
			}
		}
	}
}
