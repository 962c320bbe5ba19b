// Command et-trace records and replays Python-Tutor-style execution traces
// (paper Section III-E, Fig. 10): record a full trace, or a partial trace
// focused on a tracked function (roughly 10x smaller on recursion
// examples), then navigate the trace through the same Tracker API.
//
// Usage:
//
//	et-trace record [-track FUNC] [-watch VAR] [-format v1|v2] [-interval N] [-o OUT.trace] PROGRAM.{py,c}
//	et-trace replay TRACE [-at N]
//	et-trace seek -at N TRACE
//	et-trace last-change [-at N] VAR TRACE
//	et-trace query 'EXPR [| count [by FIELD]]' TRACE
//	et-trace stats TRACE
//
// Traces come in two formats: v1 stores a full state per step; v2 stores
// per-step deltas anchored by periodic checkpoints, so seeking to any step
// is O(interval) instead of O(n). Every verb accepts either format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	"easytracker"
	"easytracker/internal/pt"
	"easytracker/internal/query"
	"easytracker/internal/tracetracker"
	"easytracker/internal/ttd"
)

// onSigint runs f on the first SIGINT — interrupting the active tracker so
// a runaway inferior ends in a clean, inspectable pause — and force-exits
// with the conventional 130 status on the second. The returned func
// detaches the handler.
func onSigint(f func()) func() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt)
	go func() {
		if _, ok := <-ch; !ok {
			return
		}
		f()
		if _, ok := <-ch; ok {
			os.Exit(130)
		}
	}()
	return func() { signal.Stop(ch); close(ch) }
}

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "seek":
		seek(os.Args[2:])
	case "last-change":
		lastChange(os.Args[2:])
	case "query":
		runQuery(os.Args[2:])
	case "stats":
		stats(os.Args[2:])
	case "html":
		toHTML(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: et-trace record|replay|seek|last-change|query|stats ...")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	track := fs.String("track", "", "track only this function (partial trace)")
	watch := fs.String("watch", "", "also watch this variable")
	out := fs.String("o", "out.trace", "output path")
	format := fs.String("format", "v1", "trace format: v1 (full states) or v2 (deltas + checkpoints)")
	interval := fs.Int("interval", 0, "v2 checkpoint interval in steps (0 = adaptive sqrt policy)")
	remoteAddr := fs.String("remote", "", "record on a tracker server (et-serve) at host:port")
	showStats := fs.Bool("stats", false, "print the tracker's metrics snapshot (JSON) to stderr on exit")
	statsInterval := fs.Duration("stats-interval", 0, "also print the metrics snapshot to stderr every DUR while recording (0 disables)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	prog := fs.Arg(0)

	kind := easytracker.KindFor(prog)
	tracker, err := newTracker(kind, *remoteAddr)
	check(err)
	var progOut strings.Builder
	loadOpts := []easytracker.LoadOption{easytracker.WithStdout(&progOut)}
	if *showStats || *statsInterval > 0 {
		loadOpts = append(loadOpts, easytracker.WithObservability())
	}
	check(tracker.LoadProgram(prog, loadOpts...))
	if *statsInterval > 0 {
		defer statsTicker(tracker, *statsInterval)()
	}
	// Ctrl-C interrupts the inferior; Record then returns the partial
	// trace up to the INTERRUPTED pause instead of dying mid-run.
	defer onSigint(func() { easytracker.Interrupt(tracker) })()
	opts := pt.Options{Mode: pt.ModeFullStep, Lang: kind}
	if *track != "" {
		opts.Mode = pt.ModeTracked
		opts.TrackFunctions = []string{*track}
	}
	if *watch != "" {
		opts.Watches = []string{*watch}
	}
	trace, err := pt.Record(tracker, &progOut, opts)
	check(err)
	var data []byte
	switch *format {
	case "v1":
		data, err = trace.Encode()
		check(err)
		check(os.WriteFile(*out, data, 0o644))
		fmt.Printf("recorded %d steps (%d bytes) to %s\n", len(trace.Steps), len(data), *out)
	case "v2":
		store, err := ttd.FromTrace(trace, *interval)
		check(err)
		v2 := store.Trace()
		data, err = v2.Encode()
		check(err)
		check(os.WriteFile(*out, data, 0o644))
		fmt.Printf("recorded %d steps, %d checkpoints (%d bytes) to %s\n",
			len(v2.Steps), len(v2.Checkpoints), len(data), *out)
	default:
		check(fmt.Errorf("unknown trace format %q (want v1 or v2)", *format))
	}
	if n := len(trace.Steps); n > 0 {
		if st := trace.Steps[n-1].State; st != nil && st.Reason.Type == easytracker.PauseInterrupted {
			fmt.Fprintf(os.Stderr, "recording stopped early: %s\n", st.Reason)
		}
	}
	if *showStats {
		printStats(tracker)
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	at := fs.Int("at", -1, "jump to step N and print its state")
	showStats := fs.Bool("stats", false, "print the tracker's metrics snapshot (JSON) to stderr on exit")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	tracker := tracetracker.New()
	var loadOpts []easytracker.LoadOption
	if *showStats {
		loadOpts = append(loadOpts, easytracker.WithObservability())
		defer printStats(tracker)
	}
	check(tracker.LoadProgram(fs.Arg(0), loadOpts...))
	check(tracker.Start())
	// The trace tracker has no inferior to interrupt, so Ctrl-C sets a
	// flag the replay loop polls; a capable tracker would be interrupted
	// directly.
	var stop atomic.Bool
	defer onSigint(func() {
		if !easytracker.Interrupt(tracker) {
			stop.Store(true)
		}
	})()
	step := 0
	for {
		if _, done := tracker.ExitCode(); done {
			break
		}
		if stop.Load() {
			fmt.Printf("replay interrupted at step %d\n", step)
			return
		}
		if *at < 0 || step == *at {
			fr, err := tracker.CurrentFrame()
			if err == nil {
				_, line := tracker.Position()
				fmt.Printf("step %d (line %d):\n%s", step, line, fr.Backtrace())
			}
			if step == *at {
				return
			}
		}
		check(tracker.Step())
		step++
	}
	code, _ := tracker.ExitCode()
	fmt.Printf("replay finished after %d steps, exit %d\nprogram output:\n%s",
		step, code, tracker.Stdout())
}

// seek jumps straight to one step of a recorded trace and prints its state
// — no forward replay. On a v2 trace the jump applies at most one
// checkpoint interval of deltas; on v1 it is a direct index.
func seek(args []string) {
	fs := flag.NewFlagSet("seek", flag.ExitOnError)
	at := fs.Int("at", -1, "step to seek to (required)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 || *at < 0 {
		fmt.Fprintln(os.Stderr, "usage: et-trace seek -at N TRACE")
		os.Exit(2)
	}
	tracker := tracetracker.New()
	check(tracker.LoadProgram(fs.Arg(0)))
	check(tracker.Start())
	check(tracker.SeekTo(*at))
	_, line := tracker.Position()
	fmt.Printf("step %d/%d (line %d):\n", tracker.Pos(), tracker.Len(), line)
	if fr, err := tracker.CurrentFrame(); err == nil {
		fmt.Print(fr.Backtrace())
	}
	if out := tracker.Stdout(); out != "" {
		fmt.Printf("output so far:\n%s", out)
	}
}

// lastChange answers a reverse watchpoint from the recording: the most
// recent write (or deletion) of a variable at or before a step, found in
// the delta index without replaying any states.
func lastChange(args []string) {
	fs := flag.NewFlagSet("last-change", flag.ExitOnError)
	at := fs.Int("at", -1, "answer relative to step N (default: the last step)")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: et-trace last-change [-at N] VAR TRACE")
		os.Exit(2)
	}
	tracker := tracetracker.New()
	check(tracker.LoadProgram(fs.Arg(1)))
	check(tracker.Start())
	pos := *at
	if pos < 0 {
		pos = tracker.Len() - 1
	}
	check(tracker.SeekTo(pos))
	ch, err := tracker.LastChange(fs.Arg(0))
	check(err)
	where := ch.Var
	if ch.Func != "" && !strings.Contains(where, ":") {
		where = ch.Func + ":" + where
	}
	if ch.Deleted {
		fmt.Printf("%s went out of scope at step %d\n", where, ch.Step)
		return
	}
	fmt.Printf("%s last changed at step %d: %s\n", where, ch.Step, ch.Val)
}

// runQuery streams a recorded trace through the query engine: every step
// becomes an event view, the expression compiles once, and matching steps
// print (or aggregate, with `| count [by FIELD]`) without ever loading the
// trace into a tracker.
func runQuery(args []string) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: et-trace query 'EXPR [| count [by FIELD]]' TRACE")
		os.Exit(2)
	}
	q, err := query.ParseQuery(args[0])
	check(err)
	data, err := os.ReadFile(args[1])
	check(err)
	trace, err := decodeAny(data)
	check(err)

	matched := 0
	counts := map[string]int{}
	var order []string
	for i, s := range trace.Steps {
		view := query.StateView{
			EventName: ttd.QueryEvent(s.Event),
			LineNo:    s.Line,
			FileName:  trace.File,
			FuncName:  s.Func,
			State:     s.State,
		}
		if q.Filter != nil && !q.Filter.Match(&view) {
			continue
		}
		matched++
		if q.Count {
			if q.By != "" {
				k := fieldValue(&view, q.By)
				if _, seen := counts[k]; !seen {
					order = append(order, k)
				}
				counts[k]++
			}
			continue
		}
		fmt.Printf("step %-5d line %-4d %-8s %s\n", i, s.Line, s.Event, s.Func)
	}
	switch {
	case q.Count && q.By != "":
		for _, k := range order {
			fmt.Printf("%-20s %d\n", k, counts[k])
		}
	case q.Count:
		fmt.Println(matched)
	default:
		fmt.Printf("%d of %d steps matched\n", matched, len(trace.Steps))
	}
}

// decodeAny parses a trace file in either format. A v2 trace is
// materialized back into the full-state form: the streaming verbs walk
// every step anyway, so each StateAt hits the one-delta forward memo.
func decodeAny(data []byte) (*pt.Trace, error) {
	if pt.SniffVersion(data) == 0 {
		return pt.Decode(data)
	}
	v2, err := pt.DecodeV2(data)
	if err != nil {
		return nil, err
	}
	store, err := ttd.FromV2(v2)
	if err != nil {
		return nil, err
	}
	tr := &pt.Trace{Code: v2.Code, File: v2.File, Lang: v2.Lang, ExitCode: v2.ExitCode}
	for i := 0; i < store.Len(); i++ {
		st, err := store.StateAt(i)
		if err != nil {
			return nil, err
		}
		tr.Steps = append(tr.Steps, pt.Step{
			Event:  store.EventAt(i),
			Line:   store.LineAt(i),
			Func:   store.FuncAt(i),
			Stdout: store.StdoutAt(i),
			State:  st,
		})
	}
	return tr, nil
}

// fieldValue renders one typed field for `count by FIELD` bucketing.
func fieldValue(v *query.StateView, field string) string {
	switch field {
	case "line":
		return fmt.Sprintf("%d", v.Line())
	case "depth":
		return fmt.Sprintf("%d", v.Depth())
	case "event":
		return v.Event()
	case "function":
		return v.Function()
	case "file":
		return v.File()
	}
	return ""
}

func stats(args []string) {
	if len(args) != 1 {
		usage()
	}
	data, err := os.ReadFile(args[0])
	check(err)
	trace, err := decodeAny(data)
	check(err)
	events := map[string]int{}
	for _, s := range trace.Steps {
		events[s.Event]++
	}
	fmt.Printf("file: %s\nlang: %s\nsteps: %d\nbytes: %d\nexit: %d\n",
		trace.File, trace.Lang, len(trace.Steps), len(data), trace.ExitCode)
	for ev, n := range events {
		fmt.Printf("  %-12s %d\n", ev, n)
	}
}

// toHTML renders a trace as the Fig. 10 self-contained navigator page.
func toHTML(args []string) {
	fs := flag.NewFlagSet("html", flag.ExitOnError)
	out := fs.String("o", "trace.html", "output path")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	data, err := os.ReadFile(fs.Arg(0))
	check(err)
	trace, err := decodeAny(data)
	check(err)
	page, err := pt.HTML(trace)
	check(err)
	check(os.WriteFile(*out, []byte(page), 0o644))
	fmt.Printf("wrote %s (%d steps); open it in a browser and use Forward\n",
		*out, len(trace.Steps))
}

// newTracker builds a local tracker, or — with -remote — connects a session
// on a tracker server. The remote tracker satisfies the same contract, so
// the rest of the command is oblivious; Ctrl-C interrupts travel over the
// wire through the same easytracker.Interrupt call.
func newTracker(kind, remoteAddr string) (easytracker.Tracker, error) {
	if remoteAddr == "" {
		return easytracker.New(kind)
	}
	return easytracker.Connect(remoteAddr, kind)
}

// printStats dumps the tracker's instrument snapshot to stderr, keeping
// stdout clean for the subcommand's own output.
func printStats(tr easytracker.Tracker) {
	snap, _ := easytracker.Stats(tr)
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// statsTicker prints a one-line metrics snapshot to stderr every interval
// until the returned stop function runs. Stats is safe to call from a second
// goroutine: it reads atomic instruments only.
func statsTicker(tr easytracker.Tracker, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				snap, _ := easytracker.Stats(tr)
				if data, err := json.Marshal(snap); err == nil {
					fmt.Fprintf(os.Stderr, "stats: %s\n", data)
				}
			}
		}
	}()
	return func() { close(done) }
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
