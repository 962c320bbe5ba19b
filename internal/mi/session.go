package mi

import (
	"errors"
	"fmt"
	"time"
)

// ErrTimeout is returned by DeadlineTransport when one command round trip
// exceeds its deadline. The underlying transport is poisoned (closed) when
// this fires, because a response may still arrive later and desynchronize
// the record stream; the session layer above is expected to rebuild the
// connection.
var ErrTimeout = errors.New("mi: command deadline exceeded")

// errNoInterrupt reports an Interrupt call on a chain whose base transport
// does not implement Interrupter.
var errNoInterrupt = errors.New("mi: transport does not support interrupts")

// Transport is one MI command round trip: send a command, collect the full
// response up to the "(gdb)" prompt. It is the seam between the tracker and
// the pipe/subprocess where deadlines, liveness checks and fault injection
// are layered. *Client is the base implementation.
type Transport interface {
	// RoundTrip issues one MI command and reads its complete response.
	// A nil *Response with a non-nil error means the transport itself
	// failed (closed pipe, EOF, corruption, deadline) — as opposed to an
	// MI-level ^error, which returns both the response and an error.
	RoundTrip(op string, args ...string) (*Response, error)
	// TakeOutput drains buffered inferior output.
	TakeOutput() string
	// Close tears the transport down.
	Close() error
}

// Interrupter is implemented by transports that can deliver an out-of-band
// interrupt to the debugger while a round trip is in flight. *Client
// implements it by writing a raw -exec-interrupt line; wrapping transports
// forward it down the chain.
type Interrupter interface {
	Interrupt() error
}

// DeadlineTransport bounds every round trip of the wrapped transport. On
// timeout it first escalates gently: if the wrapped transport supports
// out-of-band interrupts, the inferior is interrupted and the round trip is
// given one grace period to finish with a normal *stopped
// reason="interrupted" response — a recoverable pause with all session state
// intact. Only if that also times out (server wedged, not just the inferior
// looping) is the transport poisoned (closed) — a round trip blocked on its
// reply unblocks with a connection error and the transport must not be
// reused — and RoundTrip returns an error wrapping ErrTimeout.
type DeadlineTransport struct {
	T       Transport
	Timeout time.Duration
	// Grace bounds the wait after an escalation interrupt; zero means
	// reuse Timeout.
	Grace time.Duration
}

type rtResult struct {
	resp *Response
	err  error
}

// RoundTrip implements Transport.
func (d *DeadlineTransport) RoundTrip(op string, args ...string) (*Response, error) {
	if d.Timeout <= 0 {
		return d.T.RoundTrip(op, args...)
	}
	ch := make(chan rtResult, 1)
	go func() {
		resp, err := d.T.RoundTrip(op, args...)
		ch <- rtResult{resp, err}
	}()
	timer := time.NewTimer(d.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timer.C:
	}
	// Deadline hit. Try interrupting the inferior before giving up on the
	// whole connection: a looping inferior responds to this with a normal
	// interrupted pause and nothing is lost.
	if in, ok := d.T.(Interrupter); ok {
		if err := in.Interrupt(); err == nil {
			grace := d.Grace
			if grace <= 0 {
				grace = d.Timeout
			}
			gt := time.NewTimer(grace)
			defer gt.Stop()
			select {
			case r := <-ch:
				return r.resp, r.err
			case <-gt.C:
			}
		}
	}
	// Poison the wedged transport so the abandoned round trip returns.
	_ = d.T.Close()
	return nil, fmt.Errorf("mi: no response to %s within %v: %w", op, d.Timeout, ErrTimeout)
}

// TakeOutput implements Transport.
func (d *DeadlineTransport) TakeOutput() string { return d.T.TakeOutput() }

// Close implements Transport.
func (d *DeadlineTransport) Close() error { return d.T.Close() }

// Interrupt implements Interrupter by forwarding down the chain.
func (d *DeadlineTransport) Interrupt() error {
	if in, ok := d.T.(Interrupter); ok {
		return in.Interrupt()
	}
	return errNoInterrupt
}
