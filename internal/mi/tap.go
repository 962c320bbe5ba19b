package mi

import (
	"strconv"
	"strings"
	"time"

	"easytracker/internal/obs"
)

// TapFunc observes one completed MI round trip: the command as sent, the
// response (nil when the transport itself failed), the error, and the wall
// time the round trip took. It runs on the goroutine that issued the
// command, after the response is complete — taps must not block.
type TapFunc func(op string, args []string, resp *Response, err error, d time.Duration)

// TapTransport is the MI wire tap: a Transport middleware that reports every
// command/record pair to a TapFunc. The session layer stacks it outermost
// (above DeadlineTransport), so timeouts and transport deaths are observed
// exactly as the tracker sees them — which is what makes the flight
// recorder a faithful black box for crash reports.
type TapTransport struct {
	T   Transport
	Tap TapFunc
	// Tracer, when non-nil, records one span per round trip (named
	// "mi.round_trip", Detail = the MI command) nested under the tracker op
	// in flight via the tracer's ambient parent. Like the tap itself it runs
	// on the issuing goroutine.
	Tracer *obs.Tracer
}

// RoundTrip implements Transport.
func (t *TapTransport) RoundTrip(op string, args ...string) (*Response, error) {
	sp := t.Tracer.Start("mi.round_trip")
	sp.Detail = op
	t0 := time.Now()
	resp, err := t.T.RoundTrip(op, args...)
	sp.EndErr(err)
	if t.Tap != nil {
		t.Tap(op, args, resp, err, time.Since(t0))
	}
	return resp, err
}

// TakeOutput implements Transport.
func (t *TapTransport) TakeOutput() string { return t.T.TakeOutput() }

// Close implements Transport.
func (t *TapTransport) Close() error { return t.T.Close() }

// Interrupt implements Interrupter by forwarding down the chain.
func (t *TapTransport) Interrupt() error {
	if in, ok := t.T.(Interrupter); ok {
		return in.Interrupt()
	}
	return errNoInterrupt
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
