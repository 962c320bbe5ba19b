package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"easytracker/internal/core"
)

// TestMain lets the test binary serve as the set-up processes that run
// starts: run re-executes its own binary with --setup-child.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "--setup-child") {
		main()
	}
	os.Exit(m.Run())
}

// corpora are the generators under test, by workload family.
var corpora = []struct {
	name string
	gen  func(seed uint64) []*program
}{
	{"tutor", genTutor},
	{"probe", genProbe},
	{"timetravel", genTimeTravel},
	{"minic", genMiniC},
}

func corpusBytes(ps []*program) []byte {
	var b bytes.Buffer
	for _, p := range ps {
		fmt.Fprintf(&b, "%s\n%s\n%+v\n", p.Name, p.Src, *p)
	}
	return b.Bytes()
}

func TestCorpusSameSeedSameBytes(t *testing.T) {
	for _, c := range corpora {
		a, b := corpusBytes(c.gen(7)), corpusBytes(c.gen(7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two corpora from seed 7 differ", c.name)
		}
		if bytes.Equal(a, corpusBytes(c.gen(8))) {
			t.Errorf("%s: seeds 7 and 8 give the same corpus", c.name)
		}
	}
}

// passWork is the work one pass over a corpus executes: MiniPy lines, or
// VM instructions for MiniC.
func passWork(t *testing.T, ps []*program) (total int64) {
	t.Helper()
	for _, p := range ps {
		run := runPy
		if strings.HasSuffix(p.Name, ".c") {
			run = runC
		}
		_, n, err := run(p)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return total
}

func TestCorpusWorkStableAcrossSeeds(t *testing.T) {
	for _, c := range corpora {
		a, b := passWork(t, c.gen(1)), passWork(t, c.gen(2))
		if d := float64(a-b) / float64(a); d > 0.03 || d < -0.03 {
			t.Errorf("%s: work per pass %d (seed 1) vs %d (seed 2): %.1f%% apart", c.name, a, b, 100*d)
		}
	}
}

// programsOf is the number of programs in a workload's corpus.
func programsOf(w workload) int {
	switch w := w.(type) {
	case *tutor:
		return len(w.ps)
	case *probeWL:
		return len(w.ps)
	case *gdbWL:
		return len(w.ps)
	}
	panic(fmt.Sprintf("unknown workload %T", w))
}

// TestNoProgramDominatesAPass times a few passes of every workload and
// checks that no program's sessions take more than three times its fair
// share of the pass (in the testdata corpus, functions.py took 74% of a pass
// over 13 programs: 9.6 times its fair share). A session's cost is its
// fastest time over the passes, so that a stall on a shared host does not
// count.
func TestNoProgramDominatesAPass(t *testing.T) {
	if testing.Short() {
		t.Skip("times whole passes")
	}
	for _, name := range workloadNames() {
		w := workloads[name].build(3)
		b := newBench()
		if err := w.oracle(b); err != nil {
			t.Fatal(err)
		}
		if err := w.setUp(b); err != nil {
			t.Fatal(err)
		}
		var recs passRecs
		for p := 0; p < 5; p++ {
			rec, _ := b.pass(w, nil)
			recs = append(recs, rec)
		}
		w.tearDown()
		if b.failed > 0 {
			t.Fatalf("%s: %v", name, b.errs)
		}
		n := programsOf(w)
		per := w.sessions() / n
		shares := make([]float64, n)
		for i := 0; i < w.sessions(); i++ {
			fastest := recs[0].sess[i]
			for _, r := range recs[1:] {
				fastest = min(fastest, r.sess[i])
			}
			shares[i/per] += fastest
		}
		total := sum(shares)
		for i, s := range shares {
			if s/total > 3/float64(n) {
				t.Errorf("%s: program %d takes %.1f%% of a pass, over three times its fair share %.1f%%", name, i, 100*s/total, 100/float64(n))
			}
		}
	}
}

// TestTamperedDigestFails shows that a transcript digest that differs from
// the expected one fails the run: the result says correct=false, counts the
// failure, and the command exits non-zero.
func TestTamperedDigestFails(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(config{workload: "gdb-mi", seed: 1, seconds: 1, tamper: true}, &out, &errOut)
	if code == 0 {
		t.Fatalf("tampered run exited 0\n%s", errOut.String())
	}
	var res result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered run reported correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(errOut.String(), "transcript digest") {
		t.Errorf("no digest mismatch reported:\n%s", errOut.String())
	}
}

// TestPauseDigestCoversValues checks that probe-py's pause digest tells
// apart pauses that differ only in the watched variable, its old or new
// value, or the value of a frame variable, including inside an aliased
// list.
func TestPauseDigestCoversValues(t *testing.T) {
	b := newBench()
	pause := func(edit func(r *core.PauseReason, fr *core.Frame)) uint64 {
		shared := core.NewList(core.NewInt(4), core.NewInt(5))
		r := core.PauseReason{
			Type: core.PauseWatch, Line: 7, Variable: "::data",
			Old: core.NewList(core.NewInt(1)), New: core.NewList(core.NewInt(2)),
		}
		fr := &core.Frame{Name: "run", Line: 7, Depth: 1, Vars: []*core.Variable{
			{Name: "acc", Value: core.NewRef(shared)},
			{Name: "alias", Value: core.NewRef(shared)},
			{Name: "total", Value: core.NewInt(3)},
		}}
		edit(&r, fr)
		s := b.newSess()
		digestPause(s, r, fr)
		return s.h.Sum64()
	}
	base := pause(func(*core.PauseReason, *core.Frame) {})
	if again := pause(func(*core.PauseReason, *core.Frame) {}); again != base {
		t.Fatalf("same pause digested as %x and %x", base, again)
	}
	edits := map[string]func(r *core.PauseReason, fr *core.Frame){
		"variable":    func(r *core.PauseReason, _ *core.Frame) { r.Variable = "run:stage" },
		"old value":   func(r *core.PauseReason, _ *core.Frame) { r.Old = core.NewList(core.NewInt(9)) },
		"new value":   func(r *core.PauseReason, _ *core.Frame) { r.New = core.NewList(core.NewInt(9)) },
		"frame value": func(_ *core.PauseReason, fr *core.Frame) { fr.Vars[2].Value = core.NewInt(9) },
		"list element": func(_ *core.PauseReason, fr *core.Frame) {
			fr.Vars[0].Value.Content.(*core.Value).Content = []*core.Value{core.NewInt(4), core.NewInt(9)}
		},
		"aliasing": func(_ *core.PauseReason, fr *core.Frame) {
			fr.Vars[1].Value = core.NewRef(core.NewList(core.NewInt(4), core.NewInt(5)))
		},
	}
	for name, edit := range edits {
		if pause(edit) == base {
			t.Errorf("changing the %s leaves the digest unchanged", name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metric names and units the
// command prints are the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, command runs %v", names, workloadNames())
	}
	var want []metricDef
	for _, m := range bj.PerLayer {
		want = append(want, metricDef{m.Name, m.Unit})
	}
	if got := perLayerDefs(); !slices.Equal(got, want) {
		t.Errorf("per_layer differs from the traced run's metrics:\n got %v\nwant %v", got, want)
	}
	if len(want) > 128 {
		t.Errorf("%d per-layer metrics, over the cap of 128", len(want))
	}
	for _, m := range bj.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end_to_end %s [%s]: command prints unit %q", m.Name, m.Unit, u)
		}
	}
	if len(bj.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end_to_end metrics declared, command prints %d", len(bj.EndToEnd), len(endToEndUnits))
	}
}

// TestEveryWorkloadRunsCorrectly runs each workload briefly, untraced, on
// a seed other than the default.
func TestEveryWorkloadRunsCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		var out, errOut bytes.Buffer
		if code := run(config{workload: name, seed: 11, seconds: 1}, &out, &errOut); code != 0 {
			t.Errorf("%s exited %d:\n%s", name, code, errOut.String())
			continue
		}
		var res result
		if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
			t.Fatal(err)
		}
		for m, u := range endToEndUnits {
			got, ok := res.Metrics[m]
			if !ok || got.Unit != u || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v", name, m, got)
			}
		}
	}
}
