package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// Seeded corpus generators. Every program is built from a template whose
// structure (loop bounds, recursion depth, container sizes, pause periods) is
// fixed by its slot in the corpus, so executed lines and pauses per pass do
// not depend on the seed. The seed picks everything the structure does not
// depend on: data values, identifiers, string contents and the order of the
// programs within a pass.

// program is one generated inferior plus the probe plan its workload arms.
type program struct {
	Name string
	Src  string
	// Watches are the variable ids the probe-py, time-travel and gdb-mi
	// scripts watch.
	Watches []string
	// Conds are probe-py's conditional probes.
	Conds []condProbe
	// Track is the function probe-py (conditionally) and gdb-mi track.
	Track     string
	TrackWhen string
	// IgnoreHits is the ignore count probe-py puts on its first watch.
	IgnoreHits int
}

// condProbe is a conditional line breakpoint whose condition is mostly
// false.
type condProbe struct {
	Line int
	When string
}

// newRand returns the generator for one corpus; salt separates corpora
// generated from the same seed.
func newRand(seed uint64, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt))
}

// src accumulates program text and remembers the lines of marked statements.
type src struct {
	b     strings.Builder
	line  int
	marks map[string]int
}

func (s *src) add(format string, args ...any) {
	fmt.Fprintf(&s.b, format, args...)
	s.b.WriteByte('\n')
	s.line++
}

// mark records that the next added line is the statement called name.
func (s *src) mark(name string) {
	if s.marks == nil {
		s.marks = map[string]int{}
	}
	s.marks[name] = s.line + 1
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

var pyNames = []string{"alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta"}

var words = []string{"ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "ibis", "jay", "kiwi", "lark"}

// pyList renders n seeded small ints as a MiniPy list literal.
func pyList(r *rand.Rand, n, max int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprint(r.IntN(max))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// tutorTemplates are tutor-py's program shapes, from flat scalars to deep
// recursion holding aliased lists, dicts and objects. Each takes its size
// from the slot ladder below.
var tutorTemplates = []struct {
	name  string
	sizes []int
	gen   func(r *rand.Rand, n int) string
}{
	{"scalars", []int{10, 16, 22, 28}, genScalars},
	{"lists", []int{6, 9, 12, 15}, genLists},
	{"dicts", []int{8, 12, 16, 20}, genDicts},
	{"objects", []int{2, 3, 4, 5}, genObjects},
	{"recursion", []int{2, 3, 4, 5}, genRecursion},
	{"strings", []int{8, 12, 16, 20}, genStrings},
}

func genScalars(r *rand.Rand, n int) string {
	var s src
	a, b := pick(r, pyNames), pick(r, words)
	s.add("%s = %d", a, 1+r.IntN(90))
	s.add("%s = %d", b, 1+r.IntN(90))
	s.add("acc = 0")
	s.add("i = 0")
	s.add("while i < %d:", n)
	s.add("    acc = acc + %s * i", a)
	s.add("    %s = (%s + %s) %% 97", a, a, b)
	s.add("    %s = %s + %d", b, b, 1+r.IntN(5))
	s.add("    i = i + 1")
	s.add("print(acc, %s, %s)", a, b)
	return s.b.String()
}

func genLists(r *rand.Rand, n int) string {
	var s src
	xs := pick(r, pyNames)
	s.add("%s = %s", xs, pyList(r, n, 50))
	s.add("alias = %s", xs)
	s.add("nest = [%s, []]", xs)
	s.add("i = 0")
	s.add("while i < len(%s):", xs)
	s.add("    %s[i] = %s[i] * 2 + %d", xs, xs, r.IntN(7))
	s.add("    nest[1].append(%s[i] %% 10)", xs)
	s.add("    i = i + 1")
	s.add("alias.reverse()")
	s.add("print(%s, nest[1])", xs)
	return s.b.String()
}

func genDicts(r *rand.Rand, n int) string {
	var s src
	ws := make([]string, n)
	for i := range ws {
		ws[i] = fmt.Sprintf("%q", words[(i*5+r.IntN(3))%len(words)])
	}
	d := pick(r, pyNames)
	s.add("words = [%s]", strings.Join(ws, ", "))
	s.add("%s = {}", d)
	s.add("for w in words:")
	s.add("    %s[w] = %s.get(w, 0) + 1", d, d)
	s.add("view = %s", d)
	s.add("total = 0")
	s.add("for k in %s.keys():", d)
	s.add("    total = total + view[k] * len(k)")
	s.add("print(total, len(%s))", d)
	return s.b.String()
}

func genObjects(r *rand.Rand, n int) string {
	var s src
	s.add("class Node:")
	s.add("    def __init__(self, v):")
	s.add("        self.v = v")
	s.add("        self.items = []")
	s.add("    def push(self, x):")
	s.add("        self.items.append(x)")
	s.add("        return len(self.items)")
	s.add("nodes = []")
	s.add("i = 0")
	s.add("while i < %d:", n)
	s.add("    n = Node(i * %d)", 1+r.IntN(9))
	s.add("    n.push(i)")
	s.add("    nodes.append(n)")
	s.add("    i = i + 1")
	s.add("head = nodes[0]")
	s.add("for n in nodes:")
	s.add("    head.push(n.v)")
	s.add("print(len(head.items), nodes[%d].v)", r.IntN(n))
	return s.b.String()
}

func genRecursion(r *rand.Rand, n int) string {
	var s src
	f := "walk_" + pick(r, pyNames)
	s.add("class Box:")
	s.add("    def __init__(self, v):")
	s.add("        self.v = v")
	s.add("path = []")
	s.add("memo = {}")
	s.add("def %s(n, trail, box):", f)
	s.add("    here = [n, box.v]")
	s.add("    trail.append(n)")
	s.add("    memo[n] = trail")
	s.add("    if n == 0:")
	s.add("        return len(trail)")
	s.add("    box.v = box.v + n")
	s.add("    r = %s(n - 1, trail, box)", f)
	s.add("    trail.pop()")
	s.add("    return r + here[0]")
	s.add("b = Box(%d)", r.IntN(100))
	s.add("print(%s(%d, path, b), b.v, len(memo))", f, n)
	return s.b.String()
}

func genStrings(r *rand.Rand, n int) string {
	var s src
	w := pick(r, words) + pick(r, words)
	s.add("src = %q", w)
	s.add("out = \"\"")
	s.add("parts = []")
	s.add("i = 0")
	s.add("while i < %d:", n)
	s.add("    out = out + src[i %% len(src)]")
	s.add("    parts.append(out[-2:])")
	s.add("    i = i + 1")
	s.add("print(out.upper(), len(parts))")
	return s.b.String()
}

// genTutor builds tutor-py's (and served-py's) corpus: every template at
// every ladder size, in seeded order.
func genTutor(seed uint64) []*program {
	r := newRand(seed, 1)
	var ps []*program
	for _, t := range tutorTemplates {
		for i, n := range t.sizes {
			ps = append(ps, &program{
				Name: fmt.Sprintf("%s_%d.py", t.name, i),
				Src:  t.gen(r, n),
			})
		}
	}
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// probe-py's programs alternate a quiet stretch (one call of idle, about
// 3*quietOuter*quietInner lines with no pause but the rare conditional
// ones) and a busy stretch in which one of the three watches fires after
// every call of work (about 3*gap lines). Watching the 1000-element list
// costs about 25 times more per line than watching the one-element list,
// so those programs run a twentieth of the lines and pause five to ten
// times as often in lines. The slots fix the mix of interaction costs: the
// one-element programs' busy interactions are about 70% of all, and the
// 1000-element programs' (about a quarter) cost several times more, so the
// median sits inside the first cluster whatever the seed. All arithmetic
// stays within MiniPy's preallocated small integers, so the interpreter
// itself allocates nothing per line: what allocates is the tracker's probe
// checking.
//
// probeSlots are the shapes: watched list size crossed with how many watch
// hits a round has; rounds bring executed lines near 9*10^4 (one-element
// list) or 6*10^3 (1000-element list), which keeps every program's share
// of a pass under 1/5.
var probeSlots = []struct {
	size, quietOuter, quietInner, gap, busy, rounds int
}{
	{1, 5, 240, 250, 4, 14}, {1000, 1, 120, 50, 4, 6},
	{1, 5, 240, 250, 8, 10}, {1000, 1, 120, 50, 8, 4},
	{1, 5, 240, 250, 16, 6}, {1000, 1, 120, 50, 16, 2},
	{1, 5, 240, 250, 32, 3}, {1000, 1, 120, 50, 32, 1},
}

// genProbe builds probe-py's corpus: long-running loops (10^4-10^5 executed
// lines each) with a global, a local and a list watch, a conditional line
// breakpoint that is false on all but a few hits, a conditionally tracked
// function and an ignore count.
func genProbe(seed uint64) []*program {
	r := newRand(seed, 2)
	var ps []*program
	for i, sl := range probeSlots {
		var s src
		s.add("counter = 0")
		s.add("data = [%d] * %d", r.IntN(9), sl.size)
		s.add("def work(k, n):")
		s.add("    t = 0")
		s.add("    j = 0")
		s.add("    while j < n:")
		s.add("        t = (t + k + %d) %% 97", 1+r.IntN(9))
		s.add("        j = j + 1")
		s.add("    return t")
		s.add("def idle(k):")
		s.add("    t = 0")
		s.add("    q = 0")
		s.add("    while q < %d:", sl.quietOuter)
		s.add("        j = 0")
		s.add("        while j < %d:", sl.quietInner)
		s.mark("hot")
		s.add("            t = (t + k + %d) %% 89", 1+r.IntN(9))
		s.add("            j = j + 1")
		s.add("        q = q + 1")
		s.add("    return t")
		s.add("def run(rounds, acc):")
		s.add("    global counter")
		s.add("    total = 0")
		s.add("    stage = 0")
		s.add("    r = 0")
		s.add("    while r < rounds:")
		s.add("        total = (total + idle(r)) %% 211")
		s.add("        i = 0")
		s.add("        while i < %d:", sl.busy)
		s.add("            total = (total + work(i, %d)) %% 211", sl.gap)
		s.add("            if i %% 3 == 0:")
		s.add("                counter = counter + 1")
		s.add("            elif i %% 3 == 1:")
		s.add("                stage = stage + 1")
		s.add("            else:")
		s.add("                acc[(r + i) %% %d] = acc[(r + i) %% %d] + 1", sl.size, sl.size)
		s.add("            i = i + 1")
		s.add("        r = r + 1")
		s.add("    return total")
		s.add("print(run(%d, data), counter)", sl.rounds)
		ps = append(ps, &program{
			Name:       fmt.Sprintf("probe_%d.py", i),
			Src:        s.b.String(),
			Watches:    []string{"::counter", "run:stage", "::data"},
			IgnoreHits: 2,
			Conds: []condProbe{{
				Line: s.marks["hot"],
				When: fmt.Sprintf("q == %d && j == %d && k %% 2 == 1", sl.quietOuter-1, sl.quietInner-1),
			}},
			Track:     "idle",
			TrackWhen: "k % 2 == 0",
		})
	}
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// ttSizes are the loop lengths of the time-travel corpus: recordings of
// about 500 to 5000 steps, so that a seek replays tens of deltas from its
// checkpoint.
var ttSizes = []int{60, 90, 120, 180, 270, 560}

// genTimeTravel builds the time-travel corpus of probe-py's traced run:
// loops whose watched global changes every fourth iteration and whose ring
// list and dict are rewritten every iteration, so recordings carry real
// deltas while each step's state stays small.
func genTimeTravel(seed uint64) []*program {
	r := newRand(seed, 3)
	var ps []*program
	for i, n := range ttSizes {
		var s src
		h := pick(r, pyNames)
		s.add("best = 0")
		s.add("log = [0] * 8")
		s.add("seen = {}")
		s.add("def score(x, %s):", h)
		s.add("    v = (x * %d + %s) %% %d", 3+r.IntN(7), h, 50+r.IntN(50))
		s.add("    return v")
		s.add("i = 0")
		s.add("while i < %d:", n)
		s.add("    v = score(i, %d)", r.IntN(20))
		s.add("    log[i %% 8] = v")
		s.add("    seen[i %% 5] = v")
		s.add("    if i %% 4 == 3:")
		s.add("        best = best + v")
		s.add("    i = i + 1")
		s.add("print(best, len(log), len(seen))")
		ps = append(ps, &program{
			Name:    fmt.Sprintf("tt_%d.py", i),
			Src:     s.b.String(),
			Watches: []string{"::best"},
		})
	}
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// cSlots are gdb-mi's program shapes and sizes.
var cSlots = []struct {
	kind string
	n    int
}{
	{"arrays", 4}, {"arrays", 6},
	{"recursion", 5}, {"recursion", 7},
	{"lists", 5}, {"lists", 7},
}

// genMiniC builds gdb-mi's corpus. Every program has a recursive function
// (tracked) and a global (watched), plus its shape's own data: arrays and
// loops, recursion, or malloc'd structs linked into a list.
func genMiniC(seed uint64) []*program {
	r := newRand(seed, 4)
	var ps []*program
	for i, sl := range cSlots {
		ps = append(ps, genC(r, fmt.Sprintf("%s_%d.c", sl.kind, i), sl.kind, sl.n))
	}
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// genC builds one MiniC program of the given shape and size.
func genC(r *rand.Rand, name, kind string, n int) *program {
	var s src
	s.add("int total = 0;")
	s.add("int depth_sum(int n) {")
	s.add("    if (n <= 0) {")
	s.add("        return 0;")
	s.add("    }")
	s.add("    return n + depth_sum(n - 1);")
	s.add("}")
	switch kind {
	case "arrays":
		// Descending seeded values: the sort does the same swaps for
		// every seed.
		s.add("int vals[%d];", n)
		s.add("int main() {")
		s.add("    for (int i = 0; i < %d; i++) {", n)
		s.add("        vals[i] = %d - i * %d;", 50+r.IntN(50), 1+r.IntN(4))
		s.add("    }")
		s.add("    for (int i = 0; i < %d; i++) {", n)
		s.add("        for (int j = 0; j + 1 < %d - i; j++) {", n)
		s.add("            if (vals[j] > vals[j + 1]) {")
		s.add("                int t = vals[j];")
		s.add("                vals[j] = vals[j + 1];")
		s.add("                vals[j + 1] = t;")
		s.add("            }")
		s.add("        }")
		s.add("        total = total + vals[i];")
		s.add("    }")
		s.add("    total = total + depth_sum(3);")
	case "recursion":
		s.add("int fact(int n) {")
		s.add("    if (n <= 1) {")
		s.add("        return 1;")
		s.add("    }")
		s.add("    return n * fact(n - 1);")
		s.add("}")
		s.add("int main() {")
		s.add("    int k = %d;", 1+r.IntN(3))
		s.add("    for (int i = 0; i < 3; i++) {")
		s.add("        total = total + fact(%d) + k;", n)
		s.add("    }")
		s.add("    total = total + depth_sum(%d);", n)
	case "lists":
		s.add("struct node {")
		s.add("    int v;")
		s.add("    struct node* next;")
		s.add("};")
		s.add("int main() {")
		s.add("    struct node* head = 0;")
		s.add("    for (int i = 0; i < %d; i++) {", n)
		s.add("        struct node* n = (struct node*)malloc(sizeof(struct node));")
		s.add("        n->v = i * %d + %d;", 2+r.IntN(5), r.IntN(9))
		s.add("        n->next = head;")
		s.add("        head = n;")
		s.add("    }")
		s.add("    while (head != 0) {")
		s.add("        total = total + head->v;")
		s.add("        struct node* next = head->next;")
		s.add("        free(head);")
		s.add("        head = next;")
		s.add("    }")
		s.add("    total = total + depth_sum(%d);", min(n, 8))
	}
	s.add("    printf(\"%%d\\n\", total);")
	s.add("    return 0;")
	s.add("}")
	return &program{Name: name, Src: s.b.String(), Watches: []string{"total"}, Track: "depth_sum"}
}
