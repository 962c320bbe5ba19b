package mi

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrTimeout is returned by Send when one command round trip exceeds the
// client's Timeout. The connection is poisoned (closed) when this fires,
// because a response may still arrive later and desynchronize the record
// stream; the session layer above is expected to rebuild the connection.
var ErrTimeout = errors.New("mi: command deadline exceeded")

// Client drives an MI server over a Conn: it sends token-prefixed commands
// and collects the response records up to the "(gdb)" prompt. This is the
// tracker-side endpoint of the paper's pipe (its pygdbmi analog).
type Client struct {
	conn  Conn
	token int
	// Timeout bounds every Send; zero means no deadline. On expiry Send
	// first interrupts the inferior and waits Timeout once more for the
	// command to finish with a normal *stopped reason="interrupted"
	// response, a recoverable pause with all session state intact. Only
	// if that also expires (the server wedged, not just the inferior
	// looping) does it close the connection, so a round trip blocked on
	// its reply unblocks and the client must not be reused, and return an
	// error wrapping ErrTimeout.
	Timeout time.Duration
	// Output accumulates inferior output carried in target stream
	// records; callers drain it with TakeOutput. Guarded by outputMu:
	// after a deadline fires, an abandoned in-flight round trip may still
	// append output while the session layer drains.
	outputMu sync.Mutex
	output   strings.Builder
}

// NewClient wraps a connection.
func NewClient(conn Conn) *Client { return &Client{conn: conn} }

// Close tears down the transport.
func (c *Client) Close() error { return c.conn.Close() }

// Response is everything a command produced.
type Response struct {
	// Result is the ^-record (class "done", "running", "error", "exit").
	Result Record
	// Asyncs are *stopped and =notify records, in order.
	Asyncs []Record
	// Console collects ~ stream text.
	Console string
	// async holds Asyncs while there is one, as after an execution
	// command.
	async [1]Record
}

// Stopped returns the *stopped async record, if any.
func (r *Response) Stopped() (Record, bool) {
	for _, a := range r.Asyncs {
		if a.Kind == AsyncRecord && a.Class == "stopped" {
			return a, true
		}
	}
	return Record{}, false
}

// Send issues one MI command (operation plus arguments, quoted here as
// needed) and reads the full response, within Timeout when one is set. A
// nil *Response with a non-nil error means the connection itself failed
// (closed pipe, EOF, corruption, deadline), as opposed to an MI-level
// ^error, which returns both the response and an error.
func (c *Client) Send(op string, args ...string) (*Response, error) {
	if c.Timeout <= 0 {
		return c.roundTrip(op, args)
	}
	type result struct {
		resp *Response
		err  error
	}
	ch := make(chan result, 1)
	// The goroutine takes its own copy: capturing args would move every
	// caller's argument slice to the heap, deadline or not.
	own := slices.Clone(args)
	go func() {
		resp, err := c.roundTrip(op, own)
		ch <- result{resp, err}
	}()
	timer := time.NewTimer(c.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timer.C:
	}
	// A looping inferior answers an interrupt with a normal interrupted
	// pause, and nothing is lost.
	if c.Interrupt() == nil {
		timer.Reset(c.Timeout)
		select {
		case r := <-ch:
			return r.resp, r.err
		case <-timer.C:
		}
	}
	// Poison the wedged connection so the abandoned round trip returns.
	_ = c.conn.Close()
	return nil, fmt.Errorf("mi: no response to %s within %v: %w", op, c.Timeout, ErrTimeout)
}

// roundTrip sends one command line and reads its response. A command line
// whose arguments need no quoting, as every execution command's, is built
// in one allocation; an argument QuoteArg quotes costs its own, and may
// grow the line. The records are parsed from the lines as received.
func (c *Client) roundTrip(op string, args []string) (*Response, error) {
	c.token++
	var num [20]byte
	tok := strconv.AppendInt(num[:0], int64(c.token), 10)
	n := len(tok) + len(op)
	for _, a := range args {
		n += 1 + len(a)
	}
	var b strings.Builder
	b.Grow(n)
	b.Write(tok)
	b.WriteString(op)
	for _, a := range args {
		b.WriteByte(' ')
		b.WriteString(QuoteArg(a))
	}
	line := b.String()
	token := line[:len(tok)]
	if err := c.conn.Send(line); err != nil {
		return nil, err
	}
	resp := &Response{}
	seenResult := false
	for {
		raw, err := c.conn.Recv()
		if err != nil {
			return nil, err
		}
		rec, err := ParseRecord(raw)
		if err != nil {
			return nil, err
		}
		switch rec.Kind {
		case PromptRecord:
			if !seenResult {
				return nil, fmt.Errorf("mi: prompt before result for %s", op)
			}
			if resp.Result.Class == "error" {
				return resp, fmt.Errorf("mi: %s: %s", op, resp.Result.GetString("msg"))
			}
			return resp, nil
		case ResultRecord:
			if rec.Token != "" && rec.Token != token {
				// A stale record from a previous command; skip.
				continue
			}
			resp.Result = rec
			seenResult = true
		case AsyncRecord, NotifyRecord:
			if resp.Asyncs == nil {
				resp.Asyncs = resp.async[:0]
			}
			resp.Asyncs = append(resp.Asyncs, rec)
		case StreamRecord:
			resp.Console += rec.Stream
		case TargetStreamRecord:
			c.outputMu.Lock()
			c.output.WriteString(rec.Stream)
			c.outputMu.Unlock()
		}
	}
}

// Interrupt delivers "-exec-interrupt" outside the round-trip discipline:
// the line is written immediately — typically while another goroutine is
// blocked inside Send waiting for a -exec-continue response — and produces
// no response records of its own, so the token stream stays aligned. The
// server consumes it out of band and the running command returns a normal
// *stopped reason="interrupted" response. Conn.Send implementations are
// safe for concurrent single-line writes (StdioConn holds a mutex, and
// Connect's conn hands the line to Server.Interrupt without taking the
// lock a running command holds), so no extra locking is needed here.
func (c *Client) Interrupt() error {
	return c.conn.Send("-exec-interrupt")
}

// TakeOutput drains the inferior output received so far.
func (c *Client) TakeOutput() string {
	c.outputMu.Lock()
	defer c.outputMu.Unlock()
	out := c.output.String()
	c.output.Reset()
	return out
}

// Summary is the one-line summary of an MI response that event logs show:
// the result class plus the stop reason, if any ("^done *stopped
// reason=breakpoint-hit line=12"). A record's strings are slices of its
// line, so a Summary keeps the names the server prints as constants and
// copies any other: a log may hold it and format it later.
type Summary struct {
	none    bool // no response at all
	class   string
	stopped bool
	reason  string
	line    int64
}

// summaryNames are the result classes and stop reasons the server prints.
var summaryNames = [...]string{
	"done", "running", "error", "exit",
	"entry", "end-stepping-range", "breakpoint-hit", "watchpoint-trigger",
	"exited", "signal-received", "interrupted",
}

// ownName returns s without the line it may slice.
func ownName(s string) string {
	for _, n := range summaryNames {
		if s == n {
			return n
		}
	}
	return strings.Clone(s)
}

// Summarize takes the summary of resp, which may be nil.
func Summarize(resp *Response) Summary {
	if resp == nil {
		return Summary{none: true}
	}
	s := Summary{class: ownName(resp.Result.Class)}
	if stopped, ok := resp.Stopped(); ok {
		s.stopped = true
		s.reason = ownName(stopped.GetString("reason"))
		if line, ok := stopped.Results.GetInt("line"); ok {
			s.line = line
		}
	}
	return s
}

// String renders the summary.
func (s Summary) String() string {
	if s.none {
		return "<no response>"
	}
	var b strings.Builder
	b.WriteString("^")
	if s.class == "" {
		b.WriteString("<none>")
	} else {
		b.WriteString(s.class)
	}
	if s.stopped {
		b.WriteString(" *stopped reason=")
		b.WriteString(s.reason)
		if s.line > 0 {
			b.WriteString(" line=")
			b.WriteString(strconv.FormatInt(s.line, 10))
		}
	}
	return b.String()
}
