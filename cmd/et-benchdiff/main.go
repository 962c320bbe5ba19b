// Command et-benchdiff runs the watchpoint, observability, State codec,
// State conversion and remote benchmarks, compares them against the
// committed baseline, and writes a JSON report. It exits non-zero when any
// gated benchmark's allocs/op, ns/op or B/op regresses beyond its tolerance, so
// it can serve as a CI guard for the watchpoint fast path (which is also
// the off path of observability, span tracing and recording), against a
// return to per-value allocations in the State codec or to decoding a
// State through an intermediate tree, against converting
// unchanged MiniPy values again at every pause, against an inspected
// remote pause costing more than one round trip, and against allocations
// coming back to a MiniGDB control round trip (BenchmarkSteppingOverheadMiniC),
// to a tracked function's pauses, each RETURN one round trip
// (BenchmarkTrackFunctionMiniC), or to the MiniC machine's loads
// (BenchmarkNativeMiniC), or to a raw MI round trip whose arguments pass
// through Client.Send (BenchmarkFig4MIRoundTrip), against the
// machine committing its whole stack up front or encoding its text image at
// every start again (BenchmarkNativeMiniC's B/op), against the MI server
// copying each -et-inspect State out of the encoder again
// (BenchmarkMIInspectState's B/op), and against the remote wire allocating
// each frame and copying the State into it again
// (BenchmarkRemoteInspectMiniPy's B/op).
//
// Usage:
//
//	et-benchdiff [-bench REGEX] [-baseline FILE] [-o FILE]
//	             [-count N] [-gate NAME[,NAME...]] [-tolerance PCT]
//	             [-ns-tolerance PCT] [-dir DIR]
//
// The baseline (cmd/et-benchdiff/baseline.json) holds the committed
// reference numbers, with their history in its note; the report quotes
// both sides plus the improvement factors.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one benchmark measurement.
type BenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed reference measurement set.
type Baseline struct {
	Note       string                 `json:"note,omitempty"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

// Comparison pairs a current measurement with its baseline.
type Comparison struct {
	Before *BenchResult `json:"before,omitempty"`
	After  BenchResult  `json:"after"`
	// SpeedupX and AllocReductionX are before/after ratios (> 1 means
	// the current code is better); omitted without a baseline.
	SpeedupX        float64 `json:"speedup_x,omitempty"`
	AllocReductionX float64 `json:"alloc_reduction_x,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	Bench        string                `json:"bench"`
	Gate         string                `json:"gate"`
	ToleranceP   float64               `json:"tolerance_pct"`
	NsToleranceP float64               `json:"ns_tolerance_pct"`
	Pass         bool                  `json:"pass"`
	Results      map[string]Comparison `json:"results"`
}

// benchLine matches `BenchmarkName-8   123   456 ns/op   789 B/op   12 allocs/op`.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

func parseBenchOutput(out []byte) map[string]BenchResult {
	results := map[string]BenchResult{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := BenchResult{}
		r.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		for _, f := range strings.Split(m[3], "\t") {
			f = strings.TrimSpace(f)
			switch {
			case strings.HasSuffix(f, " B/op"):
				r.BPerOp, _ = strconv.ParseFloat(strings.TrimSuffix(f, " B/op"), 64)
			case strings.HasSuffix(f, " allocs/op"):
				r.AllocsPerOp, _ = strconv.ParseFloat(strings.TrimSuffix(f, " allocs/op"), 64)
			}
		}
		if prev, ok := results[m[1]]; ok && prev.NsPerOp <= r.NsPerOp {
			continue // -count N repetitions: keep the fastest run
		}
		results[m[1]] = r
	}
	return results
}

func loadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func main() {
	bench := flag.String("bench", "BenchmarkResumeWithWatchpointMiniPy|BenchmarkAblationWatchCountMiniPy|BenchmarkCompileMiniPy|BenchmarkObsOverhead|BenchmarkSpanOverhead|BenchmarkBudgetCheckOverhead|BenchmarkConditionalBreakMiniPy|BenchmarkRemoteRoundTrip|BenchmarkRedialOverheadOff|BenchmarkRemoteInspectMiniPy|BenchmarkSeekColdVsCheckpoint|BenchmarkRecordingOverhead|BenchmarkFig3StateSerialize|BenchmarkMIInspectState|BenchmarkStateDecodeGolden|BenchmarkStateAcrossPausesMiniPy|BenchmarkSteppingOverheadMiniC|BenchmarkTrackFunctionMiniC|BenchmarkNativeMiniC|BenchmarkFig4MIRoundTrip", "benchmark regex passed to go test -bench")
	baselinePath := flag.String("baseline", filepath.Join("cmd", "et-benchdiff", "baseline.json"), "committed baseline JSON")
	outPath := flag.String("o", "BENCH_1.json", "report output path")
	count := flag.Int("count", 1, "benchmark repetitions (best of N is kept)")
	gate := flag.String("gate", "BenchmarkResumeWithWatchpointMiniPy,BenchmarkBudgetCheckOverhead,BenchmarkConditionalBreakMiniPy,BenchmarkAblationWatchCountMiniPy/-watches,allocs:BenchmarkRedialOverheadOff,allocs:BenchmarkRemoteInspectMiniPy,allocs:BenchmarkFig3StateSerialize,allocs:BenchmarkMIInspectState,allocs:BenchmarkStateDecodeGolden,allocs:BenchmarkStateAcrossPausesMiniPy,allocs:BenchmarkSteppingOverheadMiniC,allocs:BenchmarkTrackFunctionMiniC,allocs:BenchmarkNativeMiniC,allocs:BenchmarkFig4MIRoundTrip,bytes:BenchmarkNativeMiniC,bytes:BenchmarkMIInspectState,bytes:BenchmarkRemoteInspectMiniPy", "comma-separated benchmarks whose allocs/op and ns/op are gated against the baseline; an allocs: prefix gates allocs/op only (for wire benchmarks whose ns/op rides loopback latency), a bytes: prefix gates B/op only, at the allocs/op tolerance")
	tolerance := flag.Float64("tolerance", 10, "allowed allocs/op and B/op regression in percent")
	nsTolerance := flag.Float64("ns-tolerance", 15, "allowed ns/op regression in percent (ns/op is noisier than allocs/op)")
	dir := flag.String("dir", ".", "module directory to benchmark")
	flag.Parse()

	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", *bench, "-benchmem", "-count", strconv.Itoa(*count), ".")
	cmd.Dir = *dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "et-benchdiff: go test failed: %v\n%s", err, out)
		os.Exit(1)
	}
	current := parseBenchOutput(out)
	if len(current) == 0 {
		fmt.Fprintf(os.Stderr, "et-benchdiff: no benchmarks matched %q\n%s", *bench, out)
		os.Exit(1)
	}

	var base *Baseline
	if b, err := loadBaseline(filepath.Join(*dir, *baselinePath)); err == nil {
		base = b
	} else {
		fmt.Fprintf(os.Stderr, "et-benchdiff: no baseline (%v); reporting without comparison\n", err)
	}

	report := Report{
		Bench: *bench, Gate: *gate,
		ToleranceP: *tolerance, NsToleranceP: *nsTolerance,
		Pass: true, Results: map[string]Comparison{},
	}
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cur := current[name]
		cmp := Comparison{After: cur}
		if base != nil {
			if ref, ok := base.Benchmarks[name]; ok {
				r := ref
				cmp.Before = &r
				if cur.NsPerOp > 0 {
					cmp.SpeedupX = round2(ref.NsPerOp / cur.NsPerOp)
				}
				if cur.AllocsPerOp > 0 {
					cmp.AllocReductionX = round2(ref.AllocsPerOp / cur.AllocsPerOp)
				}
			}
		}
		report.Results[name] = cmp
	}

	if base != nil {
		for _, g := range strings.Split(*gate, ",") {
			g = strings.TrimSpace(g)
			if g == "" {
				continue
			}
			allocsOnly := strings.HasPrefix(g, "allocs:")
			bytesOnly := strings.HasPrefix(g, "bytes:")
			g = strings.TrimPrefix(strings.TrimPrefix(g, "allocs:"), "bytes:")
			ref, hasRef := base.Benchmarks[g]
			cur, hasCur := current[g]
			switch {
			case !hasCur:
				fmt.Fprintf(os.Stderr, "et-benchdiff: gate %s did not run\n", g)
				report.Pass = false
			case hasRef && bytesOnly:
				if limit := ref.BPerOp * (1 + *tolerance/100); cur.BPerOp > limit {
					fmt.Fprintf(os.Stderr,
						"et-benchdiff: %s B/op %.0f exceeds baseline %.0f by more than %.0f%%\n",
						g, cur.BPerOp, ref.BPerOp, *tolerance)
					report.Pass = false
				}
			case hasRef:
				limit := ref.AllocsPerOp * (1 + *tolerance/100)
				if cur.AllocsPerOp > limit {
					fmt.Fprintf(os.Stderr,
						"et-benchdiff: %s allocs/op %.0f exceeds baseline %.0f by more than %.0f%%\n",
						g, cur.AllocsPerOp, ref.AllocsPerOp, *tolerance)
					report.Pass = false
				}
				nsLimit := ref.NsPerOp * (1 + *nsTolerance/100)
				if !allocsOnly && ref.NsPerOp > 0 && cur.NsPerOp > nsLimit {
					fmt.Fprintf(os.Stderr,
						"et-benchdiff: %s ns/op %.0f exceeds baseline %.0f by more than %.0f%%\n",
						g, cur.NsPerOp, ref.NsPerOp, *nsTolerance)
					report.Pass = false
				}
			}
		}
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "et-benchdiff: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "et-benchdiff: %v\n", err)
		os.Exit(1)
	}
	for _, name := range names {
		c := report.Results[name]
		line := fmt.Sprintf("%s: %.0f ns/op, %.0f B/op, %.0f allocs/op", name, c.After.NsPerOp, c.After.BPerOp, c.After.AllocsPerOp)
		if c.Before != nil {
			line += fmt.Sprintf(" (was %.0f ns/op, %.0f B/op, %.0f allocs/op; %.2fx faster, %.2fx fewer allocs)",
				c.Before.NsPerOp, c.Before.BPerOp, c.Before.AllocsPerOp, c.SpeedupX, c.AllocReductionX)
		}
		fmt.Println(line)
	}
	if !report.Pass {
		os.Exit(1)
	}
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }
