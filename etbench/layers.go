package main

import (
	"fmt"
	"sort"
	"time"

	"easytracker"
	"easytracker/internal/dbg"
	"easytracker/internal/isa"
	"easytracker/internal/minic"
	"easytracker/internal/minipy"
	"easytracker/internal/vm"
)

// Layer measurements. A traced run reports every call family from the
// spans of its own workload's traced passes; after them, each workload adds
// the measurements its calls cannot give (workload.layers):
//
//   - tutor-py and served-py compile their corpus on minipy and decode the
//     States their passes encoded; served-py also runs one local pass of
//     its script, for the wire's cost per call.
//   - probe-py compiles its corpus, climbs the rungs below, and records and
//     navigates the time-travel corpus (timeTravel).
//   - gdb-mi measures minic, vm and dbg below the tracker (cLayers).
//
// The rungs, added one at a time on the same programs:
//
//	1. native minipy.Interp.Run
//	2. Resume with nothing armed            (trace hook + handoff)
//	3. plus watches                         (watch dirty-checks)
//	4. plus conditions and an ignore count  (query evaluation)
//	5. plus recording                       (ttd recorder)
//
// Each _per_line metric is the time difference between two rungs divided
// by the lines the native run executed. A family or derived metric that a
// workload's traced run does not reach reads 0, with 0 calls.

// layerReps is how many times each rung and native run repeats; the
// derived metrics are medians.
const layerReps = 3

// heapNodes is the list length of the heap-tracking comparison, and
// heapReps how many times it runs with and without heap tracking.
const (
	heapNodes = 300
	heapReps  = 15
)

// derived are the layer metrics that are not a family's median call.
var derived = []struct{ name, unit string }{
	{"minipy.dispatch_ns_per_line", "ns/line"},
	{"pytracker.hook_ns_per_line", "ns/line"},
	{"pytracker.watch_ns_per_line", "ns/line"},
	{"query.cond_ns_per_line", "ns/line"},
	{"pytracker.record_ns_per_line", "ns/line"},
	{"core.state_json_bytes", "B"},
	{"pt.v1_bytes_per_step", "B/step"},
	{"pt.v2_bytes_per_step", "B/step"},
	{"ttd.replay_mismatches", "count"},
	{"remote.wire_us_per_call", "us"},
	{"vm.native_ns_per_instr", "ns/instr"},
	{"mi.pipe_us_per_step", "us"},
	{"rt.heap_tracking_pct", "%"},
}

// modules are the library packages the benchmark calls into.
var modules = []string{
	"minipy", "pytracker", "query", "core", "pt", "ttd", "tracetracker",
	"remote", "minic", "vm", "dbg", "mi", "gdbtracker", "rt",
}

// metricDef is one per-layer metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// perLayerDefs lists every per-layer metric a traced run prints.
func perLayerDefs() []metricDef {
	var ds []metricDef
	for _, fi := range famInfo {
		if fi.metric != "" {
			ds = append(ds, metricDef{fi.metric, fi.unit},
				metricDef{fi.name + ".calls", "count"}, metricDef{fi.name + ".busy_ms", "ms"})
		}
	}
	for _, d := range derived {
		ds = append(ds, metricDef{d.name, d.unit})
	}
	for _, m := range modules {
		ds = append(ds, metricDef{m + ".errors", "count"})
	}
	return append(ds,
		metricDef{"bench.interaction_p99_us", "us"},
		metricDef{"bench.interaction_p99_beyond", "count"},
		metricDef{"bench.tracing_overhead_pct", "%"},
		metricDef{"bench.unattributed_pct", "%"})
}

// perLayer turns the spans of a traced run and the derived values
// into the per-layer metrics.
func perLayer(t *tracer, lm map[string]float64) map[string]metric {
	ms := map[string]metric{}
	st := t.stats()
	errs := map[string]int{}
	for f, fi := range famInfo {
		s := st[f]
		errs[fi.module] += s.errors
		if fi.metric == "" {
			continue
		}
		scale := 1e3
		if fi.unit == "ms" {
			scale = 1e6
		}
		ms[fi.metric] = metric{medianInt(s.durs) / scale, fi.unit}
		ms[fi.name+".calls"] = metric{float64(len(s.durs)), "count"}
		ms[fi.name+".busy_ms"] = metric{float64(s.busy) / 1e6, "ms"}
	}
	for _, d := range derived {
		ms[d.name] = metric{lm[d.name], d.unit}
	}
	for _, m := range modules {
		ms[m+".errors"] = metric{float64(errs[m]), "count"}
	}
	return ms
}

// compilePy parses and compiles every program of ps on minipy.
func compilePy(t *tracer, ps []*program) error {
	for _, p := range ps {
		sp := t.begin(famMinipyCompile, -1)
		m, err := minipy.Parse(p.Name, p.Src)
		if err == nil {
			minipy.Compile(m)
		}
		if t.end(sp, err); err != nil {
			return err
		}
	}
	return nil
}

// rungPrograms picks the rung programs: probe-py's first two
// shapes with a one-element watched list. (Recording a 1000-element list
// snapshots it on every write and would dominate the traced run.)
func rungPrograms(seed uint64) []*program {
	ps := genProbe(seed)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	var rs []*program
	for i, p := range ps {
		if probeSlots[i].size == 1 && len(rs) < 2 {
			rs = append(rs, p)
		}
	}
	return rs
}

// pyRungs times the five MiniPy rungs.
func pyRungs(b *bench, seed uint64, lm map[string]float64) error {
	ps := rungPrograms(seed)
	var lines int64
	for _, p := range ps {
		_, n, err := runPy(p)
		if err != nil {
			return err
		}
		lines += n
	}
	var rungs [5][]float64
	for rep := 0; rep < layerReps; rep++ {
		for r := range rungs {
			var total time.Duration
			for _, p := range ps {
				d, err := runRung(b, p, r)
				if err != nil {
					return fmt.Errorf("rung %d on %s: %w", r+1, p.Name, err)
				}
				total += d
			}
			rungs[r] = append(rungs[r], float64(total))
		}
	}
	per := func(r int) float64 { return median(rungs[r]) / float64(lines) }
	lm["minipy.dispatch_ns_per_line"] = per(0)
	lm["pytracker.hook_ns_per_line"] = per(1) - per(0)
	lm["pytracker.watch_ns_per_line"] = per(2) - per(1)
	lm["query.cond_ns_per_line"] = per(3) - per(2)
	lm["pytracker.record_ns_per_line"] = per(4) - per(3)
	return nil
}

// runRung runs p on rung r (0-based) and returns the time spent executing
// it: Interp.Run natively, or the Resume calls of a tracked session.
func runRung(b *bench, p *program, r int) (time.Duration, error) {
	t := b.tr
	if r == 0 {
		m, err := minipy.Parse(p.Name, p.Src)
		if err != nil {
			return 0, err
		}
		in := minipy.NewInterp(m)
		sp := t.begin(famMinipyRun, -1)
		t0 := time.Now()
		_, err = in.Run()
		d := time.Since(t0)
		t.end(sp, err)
		return d, err
	}
	opts := []easytracker.LoadOption{easytracker.WithSource(p.Src)}
	if r == 4 {
		opts = append(opts, easytracker.WithRecording(0))
	}
	tr, err := easytracker.New("minipy")
	if err != nil {
		return 0, err
	}
	defer tr.Terminate()
	if err := tr.LoadProgram(p.Name, opts...); err != nil {
		return 0, err
	}
	if err := tr.Start(); err != nil {
		return 0, err
	}
	switch r {
	case 2:
		for _, v := range p.Watches {
			if err := tr.Watch(v); err != nil {
				return 0, err
			}
		}
	case 3, 4:
		if err := armProbes(tr, p); err != nil {
			return 0, err
		}
	}
	var d time.Duration
	for {
		sp := t.begin(famRungResume, -1)
		t0 := time.Now()
		err := tr.Resume()
		d += time.Since(t0)
		if t.end(sp, err); err != nil {
			return 0, err
		}
		if _, done := tr.ExitCode(); done {
			return d, nil
		}
	}
}

// cLayers measures the MiniC layers below the tracker: compilation, native
// execution on the VM, line stepping on the debugger core without MI, and
// the cost of heap tracking.
func cLayers(b *bench, seed uint64, ps []*program, lm map[string]float64) error {
	t := b.tr
	var nsPerInstr []float64
	for rep := 0; rep < layerReps; rep++ {
		var busy time.Duration
		var instrs uint64
		for _, p := range ps {
			sp := t.begin(famMinicCompile, -1)
			prog, err := minic.Compile(p.Name, p.Src)
			if t.end(sp, err); err != nil {
				return err
			}
			m, err := vm.New(prog, vm.Config{})
			if err != nil {
				return err
			}
			sp = t.begin(famVMRun, -1)
			t0 := time.Now()
			stop := m.Run(0)
			busy += time.Since(t0)
			t.end(sp, stop.Err)
			instrs += m.Steps()
			if err := stepDbg(t, prog); err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
		}
		nsPerInstr = append(nsPerInstr, float64(busy)/float64(instrs))
	}
	lm["vm.native_ns_per_instr"] = median(nsPerInstr)

	// Heap tracking costs per malloc and free, so it is priced on a list
	// of heapNodes malloc'd structs.
	heap := genC(newRand(seed, 6), "heap.c", "lists", heapNodes)
	var pct []float64
	for rep := 0; rep < heapReps; rep++ {
		off, err := resumeToExit(heap, false)
		if err != nil {
			return err
		}
		on, err := resumeToExit(heap, true)
		if err != nil {
			return err
		}
		pct = append(pct, (float64(on)/float64(off)-1)*100)
	}
	lm["rt.heap_tracking_pct"] = median(pct)
	return nil
}

// stepDbg steps a compiled program to its end on dbg.Debugger, without MI.
func stepDbg(t *tracer, prog *isa.Program) error {
	d, err := dbg.New(prog, vm.Config{})
	if err != nil {
		return err
	}
	sp := t.begin(famDbgStart, -1)
	_, err = d.Start()
	if t.end(sp, err); err != nil {
		return err
	}
	for {
		if _, done := d.Exited(); done {
			return nil
		}
		sp := t.begin(famDbgStep, -1)
		_, err := d.StepLine(nil)
		if t.end(sp, err); err != nil {
			return err
		}
	}
}

// resumeToExit times one Resume from entry to exit on the minigdb tracker,
// with or without heap tracking.
func resumeToExit(p *program, heap bool) (time.Duration, error) {
	opts := []easytracker.LoadOption{easytracker.WithSource(p.Src)}
	if heap {
		opts = append(opts, easytracker.WithHeapTracking())
	}
	tr, err := easytracker.New("minigdb")
	if err != nil {
		return 0, err
	}
	defer tr.Terminate()
	if err := tr.LoadProgram(p.Name, opts...); err != nil {
		return 0, err
	}
	if err := tr.Start(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := tr.Resume(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if _, done := tr.ExitCode(); !done {
		return 0, fmt.Errorf("%s did not run to its end", p.Name)
	}
	return d, nil
}
