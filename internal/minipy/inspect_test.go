package minipy

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"easytracker/internal/core"
)

// Shapes the session converter must keep byte-identical to a one-shot
// conversion: long chains, one big cycle, and small cycles reached both
// from bindings served from the memo and from containers that changed.
var (
	chainProgram = `class Node:
    def __init__(self, v, nxt):
        self.v = v
        self.nxt = nxt

head = None
i = 0
while i < 100:
    head = Node(i, head)
    i = i + 1
tail = head
while tail.nxt != None:
    tail = tail.nxt
j = 0
while j < 6:
    tail.v = j
    j = j + 1
`
	doublyLinkedProgram = `class N:
    def __init__(self, v):
        self.v = v
        self.prev = None
        self.next = None

first = N(0)
last = first
i = 1
while i < 40:
    n = N(i)
    n.prev = last
    last.next = n
    last = n
    i = i + 1
cur = first
while cur != None:
    cur.v = cur.v * 2
    cur = cur.next
ring = [first, 0]
ring[1] = 7
last.next = first
first.prev = last
ring[1] = 8
`
	cyclesProgram = `x = [0]
r = [0, 0, 0]
a = []
a.append(a)
d = {}
d["self"] = d
x[0] = a
r[1] = a
r[2] = d
k = 0
while k < 4:
    r[0] = k
    k = k + 1
class C:
    def __init__(self):
        self.me = self
        self.n = 0

c = C()
y = [c, x]
while k < 8:
    r[0] = k
    c.n = k
    k = k + 1
t = ([], 1)
t[0].append(t)
e = {(1, 2): t, 3: [t]}
a.append(1)
while k < 11:
    r[0] = k
    k = k + 1
d["k"] = [a, d]
del x[0]
x.append(d)
b = [a, a, d, d]
a.append(b)
k = 0
`
	probeProgram = `data = list(range(1000))
total = 0
i = 0
while i < 40:
    total = total + i
    if i % 10 == 0:
        data[i * 3] = i + 1000
    i = i + 1
`
)

// stateJSON encodes a frame chain and globals as one State document.
func stateJSON(t *testing.T, fr *core.Frame, g []*core.Variable) []byte {
	t.Helper()
	b, err := json.Marshal(&core.State{Frame: fr, Globals: g})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func varsEqual(a, b []*core.Variable) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !a[i].Value.Equal(b[i].Value) {
			return false
		}
	}
	return true
}

// sessionSnap is one snapshot taken by a session converter, kept with the
// digest of its encoding when it was taken.
type sessionSnap struct {
	fr  *core.Frame
	g   []*core.Variable
	sum [32]byte
}

// checkSessionOracle runs src on both engines and, at every trace event,
// compares two session converters against a one-shot conversion: one
// snapshots every event frame-first, the other every third event
// globals-first, so bindings are served from the memo after gaps of
// several writes and in both orders. Every snapshot must encode to the
// one-shot bytes and be Equal to it, and at the end every snapshot must
// still encode as it did when it was taken.
func checkSessionOracle(t *testing.T, name, src string) {
	t.Helper()
	for _, eng := range engines {
		mod, err := Parse(name, src)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		in := NewInterp(mod)
		every, third := NewConverter(in), NewConverter(in)
		var kept []sessionSnap
		event := 0
		in.SetTrace(func(fr *RTFrame, ev Event, _ *Object) error {
			event++
			one := NewConverter(in)
			f1 := SnapshotFrame(one, fr, name)
			g1 := SnapshotGlobals(one, in.Globals)
			want := stateJSON(t, f1, g1)
			check := func(label string, f *core.Frame, g []*core.Variable) {
				got := stateJSON(t, f, g)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s engine %v event %d (%s line %d): %s converter diverged\n got: %s\nwant: %s",
						name, eng, event, ev, fr.Line, label, got, want)
				}
				if !f.Equal(f1) || !varsEqual(g, g1) {
					t.Fatalf("%s engine %v event %d: %s converter not Equal", name, eng, event, label)
				}
				kept = append(kept, sessionSnap{f, g, sha256.Sum256(got)})
			}
			f := SnapshotFrame(every, fr, name)
			check("every-event", f, SnapshotGlobals(every, in.Globals))
			if event%3 == 0 {
				g := SnapshotGlobals(third, in.Globals)
				check("every-third", SnapshotFrame(third, fr, name), g)
			}
			return nil
		})
		if _, err := eng.run(in); err != nil {
			t.Fatalf("%s engine %v: %v", name, eng, err)
		}
		for i, s := range kept {
			if sha256.Sum256(stateJSON(t, s.fr, s.g)) != s.sum {
				t.Fatalf("%s engine %v: snapshot %d changed after it was taken", name, eng, i)
			}
		}
	}
}

// TestSessionConverterOracle pins persistent conversion to the one-shot
// walk: byte-identical and Equal at every event on both engines, over the
// testdata programs, the write-barrier program, generated list programs,
// a probe-shaped run, and the chain, doubly linked and cyclic shapes.
func TestSessionConverterOracle(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join("testdata", "writebarriers.py"))
	if len(files) < 14 {
		t.Fatalf("expected the 13 testdata programs and writebarriers.py, found %d", len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(f), func(t *testing.T) {
			checkSessionOracle(t, filepath.Base(f), string(src))
		})
	}
	t.Run("list-programs", func(t *testing.T) {
		r := rand.New(rand.NewSource(1234))
		for trial := 0; trial < 30; trial++ {
			checkSessionOracle(t, fmt.Sprintf("list%d.py", trial), genListProgram(r))
		}
	})
	for _, p := range []struct{ name, src string }{
		{"probe.py", probeProgram},
		{"chain.py", chainProgram},
		{"doubly.py", doublyLinkedProgram},
		{"cycles.py", cyclesProgram},
	} {
		t.Run(p.name, func(t *testing.T) { checkSessionOracle(t, p.name, p.src) })
	}
}

// runModule runs src to completion and returns the interpreter with a
// module frame over its globals, ready for inspection.
func runModule(t *testing.T, src string) (*Interp, *RTFrame) {
	t.Helper()
	mod, err := Parse("m.py", src)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp(mod)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	return in, &RTFrame{Name: "<module>", Locals: in.Globals, Line: 1}
}

// snapshotAllocs measures the allocations of one State conversion by a
// warmed session converter, after prepare moves the program state (prepare
// itself allocates nothing).
func snapshotAllocs(t *testing.T, n int, prepare func(in *Interp, xs *Object, run int)) float64 {
	t.Helper()
	in, fr := runModule(t, fmt.Sprintf("xs = list(range(%d))\nk = 0\n", n))
	xs, _ := in.Globals.Get("xs")
	c := NewConverter(in)
	SnapshotFrame(c, fr, "m.py")
	SnapshotGlobals(c, in.Globals)
	run := 0
	return testing.AllocsPerRun(50, func() {
		run++
		prepare(in, xs, run)
		SnapshotFrame(c, fr, "m.py")
		SnapshotGlobals(c, in.Globals)
	})
}

// TestSessionConversionCostModel pins what a snapshot costs without
// timing it: with a global list of 10 or of 1,000 elements, a snapshot
// allocates the same whether nothing was written, only another binding
// was written, or one element of the list was written.
func TestSessionConversionCostModel(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(in *Interp, xs *Object, run int)
	}{
		{"nothing-written", func(*Interp, *Object, int) {}},
		{"other-binding-written", func(in *Interp, _ *Object, run int) {
			in.Globals.Set("k", in.newInt(int64(run%2)))
		}},
		{"one-element-written", func(in *Interp, xs *Object, run int) {
			xs.L[5] = in.newInt(int64(run % 2))
			in.stamp(xs)
		}},
	}
	for _, tc := range cases {
		small := snapshotAllocs(t, 10, tc.prepare)
		big := snapshotAllocs(t, 1000, tc.prepare)
		t.Logf("%s: %v allocs per snapshot", tc.name, big)
		if small != big {
			t.Errorf("%s: %v allocs per snapshot with 10 elements, %v with 1000", tc.name, small, big)
		}
	}
}

// TestSessionConversionChainWalks guards the bottom-up rule on a 2,000-node
// chain whose tail is written between snapshots: testing reachability at
// every node would re-walk the rest of the chain from each node, so the
// reachability walks per snapshot must stay within one per binding.
func TestSessionConversionChainWalks(t *testing.T) {
	in, fr := runModule(t, `class Node:
    def __init__(self, v, nxt):
        self.v = v
        self.nxt = nxt

head = None
i = 0
while i < 2000:
    head = Node(i, head)
    i = i + 1
tail = head
while tail.nxt != None:
    tail = tail.nxt
`)
	tail, _ := in.Globals.Get("tail")
	c := NewConverter(in)
	snapshot := func() ([]byte, uint64) {
		before := in.visitStamp
		f := SnapshotFrame(c, fr, "m.py")
		g := SnapshotGlobals(c, in.Globals)
		return stateJSON(t, f, g), in.visitStamp - before
	}
	snapshot()
	bindings := uint64(in.Globals.Len() - len(builtinNames))
	for w := 0; w < 5; w++ {
		tail.Attrs.SetStr("v", in.newInt(int64(w)))
		in.stamp(tail)
		got, walks := snapshot()
		if walks > bindings {
			t.Fatalf("write %d: %d reachability walks for %d bindings", w, walks, bindings)
		}
		one := NewConverter(in)
		want := stateJSON(t, SnapshotFrame(one, fr, "m.py"), SnapshotGlobals(one, in.Globals))
		if !bytes.Equal(got, want) {
			t.Fatalf("write %d: session snapshot differs from a one-shot conversion", w)
		}
	}
}
