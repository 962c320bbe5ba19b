// Command et-serve hosts tracker sessions for remote clients: any tool run
// with -remote host:port (et-trace record, et-invariant, et-stackheap) — or
// any program using easytracker.Connect — drives its inferior inside this
// process over the wire protocol, with the same pause reasons, state
// snapshots and typed errors as a local tracker.
//
// Sessions are isolated tenants: an admission limit caps how many run
// concurrently, idle sessions are evicted, and per-session resource budgets
// and execution deadlines bound what any one client can burn. SIGTERM and
// SIGINT drain gracefully — in-flight commands finish and flush their
// responses before the process exits; a second signal forces exit.
//
// Usage:
//
//	et-serve [-addr :7070] [-http addr] [-max-sessions N] [-idle DUR]
//	         [-exec-timeout DUR] [-max-steps N] [-max-depth N] [-max-heap N]
//	         [-max-instr N] [-no-recording] [-heartbeat DUR] [-hb-misses N]
//	         [-retry-after DUR] [-stats] [-stats-interval DUR] [-v]
//
// With -heartbeat every session's hello reply tells its client to ping at
// that interval: peers silent past -hb-misses consecutive intervals are
// evicted even mid-command, and clients detect a dead server instead of
// blocking on a dropped response. -retry-after
// stamps admission refusals (session limit, draining) with a hint that
// redialing clients honor as their backoff.
//
// With -http the server exposes its live telemetry over HTTP: /metrics
// (Prometheus text), /healthz and /readyz (readiness flips to 503 the moment
// a drain begins), /sessions (per-session JSON), /spans (span dump;
// ?chrome=1 for the Chrome trace-event format) and /debug/pprof. The
// telemetry listener stays up through the drain so operators can watch it
// finish.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"easytracker"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	httpAddr := flag.String("http", "", "telemetry HTTP listen address (/metrics, /healthz, /readyz, /sessions, /spans, /debug/pprof; empty disables)")
	maxSessions := flag.Int("max-sessions", 64, "concurrent session limit")
	idle := flag.Duration("idle", 10*time.Minute, "evict sessions idle this long (0 disables)")
	execTimeout := flag.Duration("exec-timeout", 0, "cap every session's execution timeout per resuming call (0: no cap)")
	maxSteps := flag.Int64("max-steps", 0, "cap every session's source-step budget (0: no cap)")
	maxDepth := flag.Int("max-depth", 0, "cap every session's call-depth budget (0: no cap)")
	maxHeap := flag.Int64("max-heap", 0, "cap every session's heap-object budget (0: no cap)")
	maxInstr := flag.Uint64("max-instr", 0, "cap every session's instruction budget (0: no cap)")
	noRecording := flag.Bool("no-recording", false, "refuse clients' time-travel recording requests (recordings grow server memory per step)")
	heartbeat := flag.Duration("heartbeat", 0, "heartbeat interval granted to every client; silent peers are evicted (0 disables)")
	hbMisses := flag.Int("hb-misses", 0, "missed heartbeats before a silent peer is evicted (0: protocol default)")
	retryAfter := flag.Duration("retry-after", 0, "retry-after hint attached to busy/draining refusals (0: server default)")
	drainWait := flag.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
	showStats := flag.Bool("stats", false, "print the server's metrics snapshot (JSON) to stderr on exit")
	statsInterval := flag.Duration("stats-interval", 0, "also print the metrics snapshot to stderr every DUR while serving (0 disables)")
	verbose := flag.Bool("v", false, "log admissions, evictions and teardowns")
	flag.Parse()

	cfg := serveConfig{
		MaxSessions:   *maxSessions,
		Idle:          *idle,
		ExecTimeout:   *execTimeout,
		MaxSteps:      *maxSteps,
		MaxDepth:      *maxDepth,
		MaxHeap:       *maxHeap,
		Heartbeat:     *heartbeat,
		HBMisses:      *hbMisses,
		RetryAfter:    *retryAfter,
		Drain:         *drainWait,
		StatsInterval: *statsInterval,
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "et-serve: %v\n", err)
		os.Exit(2)
	}

	opts := []easytracker.ServerOption{
		easytracker.WithMaxSessions(*maxSessions),
		easytracker.WithIdleTimeout(*idle),
		easytracker.WithSessionExecTimeout(*execTimeout),
		easytracker.WithSessionBudgets(easytracker.Budgets{
			MaxSteps:        *maxSteps,
			MaxDepth:        *maxDepth,
			MaxHeapObjects:  *maxHeap,
			MaxInstructions: *maxInstr,
		}),
	}
	if *noRecording {
		opts = append(opts, easytracker.WithRecordingDisabled())
	}
	if *heartbeat > 0 {
		opts = append(opts, easytracker.WithHeartbeat(*heartbeat, *hbMisses))
	}
	if *retryAfter > 0 {
		opts = append(opts, easytracker.WithRetryAfterHint(*retryAfter))
	}
	if *verbose {
		opts = append(opts, easytracker.WithServerLog(log.Printf))
	}
	srv := easytracker.NewServer(opts...)

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*addr) }()

	var telemetry *http.Server
	if *httpAddr != "" {
		telemetry = &http.Server{Addr: *httpAddr, Handler: srv.TelemetryHandler()}
		go func() {
			log.Printf("et-serve: telemetry on http://%s/metrics", *httpAddr)
			if err := telemetry.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("et-serve: telemetry listener: %v", err)
			}
		}()
	}

	if *statsInterval > 0 {
		go func() {
			tick := time.NewTicker(*statsInterval)
			defer tick.Stop()
			for range tick.C {
				snap := srv.Stats()
				log.Printf("et-serve: stats: sessions=%d spans=%d %s",
					srv.SessionCount(), len(srv.Spans()), compactJSON(snap))
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	log.Printf("et-serve: listening on %s (max %d sessions)", *addr, *maxSessions)
	select {
	case err := <-done:
		if err != nil {
			log.Fatalf("et-serve: %v", err)
		}
	case s := <-sig:
		log.Printf("et-serve: %v: draining (%d live sessions, deadline %v)",
			s, srv.SessionCount(), *drainWait)
		go func() {
			<-sig // second signal forces exit
			os.Exit(130)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("et-serve: drain deadline expired, sessions torn down hard")
		}
	}
	if telemetry != nil {
		// The telemetry listener outlives the drain (so /readyz answers 503
		// and /metrics stays scrapable through it) and closes last.
		telemetry.Close()
	}
	if *showStats {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		_ = enc.Encode(srv.Stats())
	}
	fmt.Println("et-serve: stopped")
}

// serveConfig is the checkable subset of the flag values. Validation
// catches the configurations that would start and then misbehave — a
// server that admits nobody, a negative timeout the clamping layers would
// silently turn into "no limit" — before the listener binds.
type serveConfig struct {
	MaxSessions   int
	Idle          time.Duration
	ExecTimeout   time.Duration
	MaxSteps      int64
	MaxDepth      int
	MaxHeap       int64
	Heartbeat     time.Duration
	HBMisses      int
	RetryAfter    time.Duration
	Drain         time.Duration
	StatsInterval time.Duration
}

// validate reports the first nonsensical flag value.
func (c serveConfig) validate() error {
	switch {
	case c.MaxSessions <= 0:
		return fmt.Errorf("-max-sessions must be positive, got %d (a server that admits no sessions serves nobody)", c.MaxSessions)
	case c.Idle < 0:
		return fmt.Errorf("-idle must not be negative, got %v (use 0 to disable idle eviction)", c.Idle)
	case c.ExecTimeout < 0:
		return fmt.Errorf("-exec-timeout must not be negative, got %v (use 0 for no cap)", c.ExecTimeout)
	case c.MaxSteps < 0:
		return fmt.Errorf("-max-steps must not be negative, got %d (use 0 for no cap)", c.MaxSteps)
	case c.MaxDepth < 0:
		return fmt.Errorf("-max-depth must not be negative, got %d (use 0 for no cap)", c.MaxDepth)
	case c.MaxHeap < 0:
		return fmt.Errorf("-max-heap must not be negative, got %d (use 0 for no cap)", c.MaxHeap)
	case c.Heartbeat < 0:
		return fmt.Errorf("-heartbeat must not be negative, got %v (use 0 to disable heartbeats)", c.Heartbeat)
	case c.HBMisses < 0:
		return fmt.Errorf("-hb-misses must not be negative, got %d (use 0 for the protocol default)", c.HBMisses)
	case c.RetryAfter < 0:
		return fmt.Errorf("-retry-after must not be negative, got %v (use 0 for the server default)", c.RetryAfter)
	case c.Drain < 0:
		return fmt.Errorf("-drain must not be negative, got %v", c.Drain)
	case c.StatsInterval < 0:
		return fmt.Errorf("-stats-interval must not be negative, got %v (use 0 to disable periodic stats)", c.StatsInterval)
	}
	return nil
}

// compactJSON renders v on one line for the periodic stats log.
func compactJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "{}"
	}
	return string(data)
}
