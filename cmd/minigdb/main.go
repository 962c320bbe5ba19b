// Command minigdb runs the MiniGDB MI server over stdin/stdout, so a
// tracker (or a human) can drive it as a real subprocess — the
// process-separated configuration of the paper's Fig. 4.
//
// Usage:
//
//	minigdb [-die-after N] [-stats] [-stats-interval DUR] [PROG.c|PROG.s|PROG.mobj]
//
// Commands are GDB/MI-style lines (-exec-run, -break-insert 12,
// -exec-continue, -et-inspect, ...); responses end with "(gdb)".
//
// Every value in a response is a quoted c-string except -et-inspect's
// state: the State JSON as the codec wrote it, unquoted, behind its length
// in bytes (abridged here):
//
//	^done,state=#371:{"frames":[{"name":"main",...}],...,"reason":{"type":"NONE"}},version="4"
//
// -die-after N makes the process exit abruptly (status 3) when command
// N+1 arrives, before any response is written — a deterministic debugger
// crash used by the session-recovery fault tests.
//
// -stats prints the server-side instrument snapshot (commands served,
// records written, the last commands seen) as JSON to stderr when the
// session ends; -stats-interval DUR prints a one-line snapshot periodically
// while serving, so a long session can be watched live.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"easytracker/internal/asm"
	"easytracker/internal/isa"
	"easytracker/internal/mi"
	"easytracker/internal/minic"
	"easytracker/internal/obs"
)

// dieConn wraps the stdio transport and kills the process after serving
// the configured number of commands.
type dieConn struct {
	mi.Conn
	left int
}

func (d *dieConn) Recv() (string, error) {
	line, err := d.Conn.Recv()
	if err != nil {
		return line, err
	}
	if d.left--; d.left < 0 {
		os.Exit(3)
	}
	return line, nil
}

// statsConn instruments the server side of the pipe: every command line
// received and record line written lands in the panel, so -stats can report
// what this debugger process actually served.
type statsConn struct {
	mi.Conn
	m *obs.Metrics
}

func (s *statsConn) Recv() (string, error) {
	line, err := s.Conn.Recv()
	if err == nil {
		s.m.Counter("server.commands").Inc()
		s.m.Event("cmd", line)
	}
	return line, err
}

func (s *statsConn) Send(line string) error {
	err := s.Conn.Send(line)
	if err == nil && line != "(gdb)" {
		s.m.Counter("server.records").Inc()
	}
	return err
}

func main() {
	dieAfter := flag.Int("die-after", -1, "crash (exit 3) when command N+1 arrives; -1 disables")
	showStats := flag.Bool("stats", false, "print the server's metrics snapshot (JSON) to stderr on exit")
	statsInterval := flag.Duration("stats-interval", 0, "also print the metrics snapshot to stderr every DUR while serving (0 disables)")
	flag.Parse()

	var prog *isa.Program
	if flag.NArg() > 0 {
		path := flag.Arg(0)
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		switch {
		case strings.HasSuffix(path, ".mobj"):
			prog = new(isa.Program)
			err = json.Unmarshal(data, prog)
		case strings.HasSuffix(path, ".s"), strings.HasSuffix(path, ".asm"):
			prog, err = asm.Assemble(path, string(data))
		default:
			prog, err = minic.Compile(path, string(data))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	srv := mi.NewServer(prog)
	srv.SetStdin(strings.NewReader("")) // inferior input not wired on stdio
	var conn mi.Conn = mi.NewStdioConn(os.Stdin, os.Stdout, nil)
	var metrics *obs.Metrics
	if *showStats || *statsInterval > 0 {
		metrics = obs.New(obs.Config{Enabled: true, Events: obs.DefaultEvents})
		conn = &statsConn{Conn: conn, m: metrics}
	}
	if *statsInterval > 0 {
		go func() {
			tick := time.NewTicker(*statsInterval)
			defer tick.Stop()
			for range tick.C {
				snap := metrics.Snapshot()
				snap.Tracker = "minigdb-server"
				if data, err := json.Marshal(snap); err == nil {
					fmt.Fprintf(os.Stderr, "stats: %s\n", data)
				}
			}
		}()
	}
	if *dieAfter >= 0 {
		conn = &dieConn{Conn: conn, left: *dieAfter}
	}
	dumpStats := func() {
		if metrics == nil {
			return
		}
		snap := metrics.Snapshot()
		snap.Tracker = "minigdb-server"
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	}
	// A SIGINT (e.g. a Ctrl-C shared with an interactive parent's process
	// group) interrupts the running inferior — equivalent to receiving
	// -exec-interrupt — so the exec command in flight returns an
	// interrupted stop instead of the server wedging. A second SIGINT
	// dumps stats and exits.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		srv.Interrupt()
		<-sig
		dumpStats()
		os.Exit(130)
	}()
	_ = conn.Send("(gdb)")
	err := srv.Serve(conn)
	dumpStats()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
