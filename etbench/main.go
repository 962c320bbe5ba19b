// Command etbench is EasyTracker's end-to-end benchmark: it generates a
// seeded corpus, drives one fixed-work workload through the public API,
// checks every output, and prints the workload's metrics by name with their
// units. With --trace 1 it also records a span around every call into the
// library and prints per-layer metrics instead.
//
//	go run . --workload tutor-py --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupReps is how many fresh processes time the set-up (one-time program
// set-up plus one warm-up pass); setup_s is the median of their times.
const setupReps = 9

// warmPasses are the untimed passes before the timed phase; the first fixes
// the expected session digests unless the oracle did.
const warmPasses = 3

// spec describes one workload: how to build it from a seed and how many
// whole passes it runs per second of --seconds.
type spec struct {
	passesPerSecond float64
	build           func(seed uint64) workload
}

var workloads = map[string]spec{
	"tutor-py":  {10, func(seed uint64) workload { return &tutor{ps: genTutor(seed)} }},
	"probe-py":  {6, func(seed uint64) workload { return &probeWL{ps: genProbe(seed)} }},
	"gdb-mi":    {5.5, func(seed uint64) workload { return &gdbWL{ps: genMiniC(seed)} }},
	"served-py": {1.3, func(seed uint64) workload { return &tutor{ps: genTutor(seed), served: true} }},
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceOut string
	// tamper corrupts one expected digest after set-up; tests use it to
	// show that a transcript mismatch fails the run.
	tamper bool
	// setupChild makes this process one of the set-up timings.
	setupChild bool
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("etbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&cfg.seed, "seed", 1, "corpus seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "run length; the number of whole passes is proportional to it")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/etbench-<workload>.trace.json)")
	fs.BoolVar(&cfg.setupChild, "setup-child", false, "time one set-up plus warm-up pass and print it (used by the command itself)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "etbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config, stdout, stderr io.Writer) int {
	sp, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 {
		logf(stderr, "usage: etbench --workload %v --seed N --seconds S --trace 0|1", workloadNames())
		return 2
	}
	w := sp.build(cfg.seed)
	b := newBench()
	if err := w.oracle(b); err != nil {
		logf(stderr, "oracle: %v", err)
		return 1
	}

	if cfg.setupChild {
		return setUpChild(w, b, stdout, stderr)
	}
	if err := w.setUp(b); err != nil {
		logf(stderr, "set-up: %v", err)
		return 1
	}
	defer w.tearDown()
	for r := 0; r < warmPasses; r++ {
		_, ds := b.pass(w, b.want)
		if b.want == nil {
			b.want = slices.Clone(ds)
		}
	}
	if cfg.tamper {
		b.want[0] ^= 1
	}
	passes := int(math.Ceil(sp.passesPerSecond * float64(cfg.seconds)))

	var res result
	if cfg.trace {
		ms, err := traced(cfg, b, w, passes, stderr)
		if err != nil {
			logf(stderr, "traced run: %v", err)
			return 1
		}
		res.Metrics = ms
	} else {
		ms, err := endToEnd(cfg, b, w, passes, stderr)
		if err != nil {
			logf(stderr, "%v", err)
			return 1
		}
		res.Metrics = ms
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	for _, e := range b.errs {
		logf(stderr, "FAILED: %s", e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf(stderr, "%v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// setUpResult is what a set-up process reports.
type setUpResult struct {
	Seconds           float64
	Attempted, Failed int64
	Errs              []string
}

// coldSetUp runs one process of this command that times the workload's
// set-up plus one warm-up pass from a cold start, and returns that time.
// Its sessions' checks count in this run's attempted and failed
// operations.
func coldSetUp(cfg config, b *bench, stderr io.Writer) (float64, error) {
	cmd := exec.Command(os.Args[0], "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed), "--setup-child")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	var res setUpResult
	if err := json.Unmarshal(out, &res); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	b.attempted += res.Attempted
	b.failed += res.Failed
	b.errs = append(b.errs, res.Errs...)
	return res.Seconds, nil
}

// setUpChild times the set-up plus one warm-up pass in this fresh process
// and prints a setUpResult.
func setUpChild(w workload, b *bench, stdout, stderr io.Writer) int {
	t0 := time.Now()
	err := w.setUp(b)
	if err == nil {
		b.pass(w, b.want)
	}
	res := setUpResult{time.Since(t0).Seconds(), b.attempted, b.failed, b.errs}
	w.tearDown()
	if err != nil {
		logf(stderr, "set-up: %v", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		logf(stderr, "%v", err)
		return 1
	}
	return 0
}

// endToEnd runs the timed phase and then the retained-heap measurement.
// The set-up processes run between timed passes, spread evenly over the
// phase, so that setup_s and the passes sample the host alike. Heap
// allocations are read before and after each pass, never inside one.
func endToEnd(cfg config, b *bench, w workload, passes int, stderr io.Writer) (map[string]metric, error) {
	every := max(passes/setupReps, 1)
	recs := make(passRecs, 0, passes)
	var setUps []float64
	var objects, bytes uint64
	for p := 0; p < passes || len(setUps) < setupReps; p++ {
		if p < passes {
			o0, by0 := readAllocs()
			rec, _ := b.pass(w, b.want)
			o1, by1 := readAllocs()
			recs = append(recs, rec)
			objects, bytes = objects+o1-o0, bytes+by1-by0
		}
		if p%every == every-1 && len(setUps) < setupReps {
			s, err := coldSetUp(cfg, b, stderr)
			if err != nil {
				return nil, err
			}
			setUps = append(setUps, s)
		}
	}
	logf(stderr, "set-up s: %s", fmtSeconds(setUps))
	n := float64(passes * w.sessions())
	retained := b.retained(w, w.sessions())
	p50, _, _ := logTimes(stderr, w, recs)
	values := map[string]float64{
		"setup_s":                 median(setUps),
		"sessions_per_s":          float64(w.sessions()) / recs.medianWall(),
		"interaction_p50_us":      p50,
		"allocs_per_session":      float64(objects) / n,
		"bytes_per_session":       float64(bytes) / n,
		"retained_kb_per_session": retained,
	}
	ms := map[string]metric{}
	for name, v := range values {
		ms[name] = metric{v, endToEndUnits[name]}
	}
	return ms, nil
}

// endToEndUnits are the end-to-end metrics every untraced run prints.
var endToEndUnits = map[string]string{
	"setup_s":                 "s",
	"sessions_per_s":          "1/s",
	"interaction_p50_us":      "us",
	"allocs_per_session":      "count",
	"bytes_per_session":       "B",
	"retained_kb_per_session": "KiB",
}

// logTimes prints the distribution of a timed phase to stderr and returns
// its interaction p50 and p99 (µs) and the number of samples beyond the p99.
func logTimes(stderr io.Writer, w workload, recs passRecs) (p50, p99 float64, beyond int) {
	lat := recs.latencies()
	q := func(f float64) float64 { return float64(quantile(lat, f)) / 1e3 }
	beyond = len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	walls := recs.walls()
	slices.Sort(walls)
	logf(stderr, "%d passes x %d sessions in %.3fs; pass s: min %.4f, median %.4f, max %.4f",
		len(recs), w.sessions(), sum(walls), walls[0], median(walls), walls[len(walls)-1])
	logf(stderr, "%d interactions, us: p10 %.1f p50 %.1f p90 %.1f p99 %.1f (%d samples beyond) p99.9 %.1f max %.1f",
		len(lat), q(.1), q(.5), q(.9), q(.99), beyond, q(.999), q(1))
	return q(.5), q(.99), beyond
}

func fmtSeconds(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4f", x)
	}
	return b.String()
}

// traced runs the workload's passes alternately untraced and traced, then
// the workload's layer measurements, and returns the per-layer metrics.
// Alternating pairs each traced pass with an untraced neighbour, so host
// drift does not masquerade as tracing overhead. The Chrome trace of the
// first traced sessions goes to cfg.traceOut.
func traced(cfg config, b *bench, w workload, passes int, stderr io.Writer) (map[string]metric, error) {
	tr := newTracer()
	var untraced, tracedRecs passRecs
	for p := 0; p < 2*((passes+1)/2); p++ {
		b.tr = nil
		if p%2 == 1 {
			b.tr = tr
		}
		rec, _ := b.pass(w, b.want)
		if p%2 == 0 {
			untraced = append(untraced, rec)
		} else {
			tracedRecs = append(tracedRecs, rec)
		}
	}
	b.tr = tr
	_, p99, beyond := logTimes(stderr, w, untraced)
	remainder, layers, own, total, worst := tr.unattributed()
	workloadSpans := len(tr.spans)
	logSelfTimes(stderr, tr)
	lm := map[string]float64{}
	if err := w.layers(b, cfg.seed, lm); err != nil {
		return nil, err
	}
	ms := perLayer(tr, lm)
	ms["bench.tracing_overhead_pct"] = metric{(tracedRecs.medianWall()/untraced.medianWall() - 1) * 100, "%"}
	ms["bench.interaction_p99_us"] = metric{p99, "us"}
	ms["bench.interaction_p99_beyond"] = metric{float64(beyond), "count"}
	ms["bench.unattributed_pct"] = metric{100 * float64(remainder) / float64(total), "%"}
	logf(stderr, "reconciliation over %d workload spans: sessions %.1fms = layers %.1fms + benchmark %.1fms + unattributed %.3fms (%.2f%%; worst session %.2f%%)",
		workloadSpans, ms1(total), ms1(layers), ms1(own), ms1(remainder), ms["bench.unattributed_pct"].Value, 100*worst)

	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "etbench-"+cfg.workload+".trace.json")
	}
	if err := writeTrace(tr, path, cfg.workload); err != nil {
		return nil, err
	}
	logf(stderr, "Chrome trace of the first %d traced sessions: %s", chromeSessions, path)
	return ms, nil
}

func ms1(ns int64) float64 { return float64(ns) / 1e6 }

// chromeSessions bounds the sessions written to the Chrome trace file, so
// that it stays small enough for Perfetto to open.
const chromeSessions = 40

func writeTrace(t *tracer, path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f, "etbench "+workload, chromeSessions); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// logSelfTimes prints where the traced workload passes spent their time:
// each family's share of the total self time.
func logSelfTimes(stderr io.Writer, t *tracer) {
	self := t.selfTimes()
	var byFam [numFams]int64
	var total int64
	for i, s := range t.spans {
		byFam[s.fam] += self[i]
		total += self[i]
	}
	order := make([]fam, 0, numFams)
	for f := range byFam {
		if byFam[f] > 0 {
			order = append(order, fam(f))
		}
	}
	sort.Slice(order, func(i, j int) bool { return byFam[order[i]] > byFam[order[j]] })
	for _, f := range order {
		logf(stderr, "self time %-28s %8.1fms %5.1f%%", famInfo[f].name, ms1(byFam[f]), 100*float64(byFam[f])/float64(total))
	}
}
