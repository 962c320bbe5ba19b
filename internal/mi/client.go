package mi

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Client drives an MI server over a Conn: it sends token-prefixed commands
// and collects the response records up to the "(gdb)" prompt. This is the
// tracker-side endpoint of the paper's pipe (its pygdbmi analog). It
// implements Transport.
type Client struct {
	conn  Conn
	token int
	// Output accumulates inferior output carried in target stream
	// records; callers drain it with TakeOutput. Guarded by outputMu:
	// after a deadline fires, an abandoned in-flight RoundTrip may still
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
// needed) and reads the full response. A command line whose arguments
// need no quoting, as every execution command's, is built in one
// allocation; an argument QuoteArg quotes costs its own, and may grow the
// line. The records are parsed from the lines as received.
func (c *Client) Send(op string, args ...string) (*Response, error) {
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

// RoundTrip implements Transport.
func (c *Client) RoundTrip(op string, args ...string) (*Response, error) {
	return c.Send(op, args...)
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
