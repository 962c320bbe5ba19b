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

// Send issues one MI command (operation plus arguments, already quoted as
// needed) and reads the full response.
func (c *Client) Send(op string, args ...string) (*Response, error) {
	c.token++
	token := strconv.Itoa(c.token)
	line := token + op
	for _, a := range args {
		line += " " + QuoteArg(a)
	}
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
