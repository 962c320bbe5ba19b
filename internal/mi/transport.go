package mi

import (
	"bufio"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
)

func float64frombits(v uint64) float64 { return math.Float64frombits(v) }

// Conn is a bidirectional line transport between an MI client and server.
type Conn interface {
	// Send writes one line.
	Send(line string) error
	// Recv reads one line (without the newline).
	Recv() (string, error)
	// Close tears the connection down.
	Close() error
}

// ErrClosed is returned on use after Close.
var ErrClosed = errors.New("mi: connection closed")

// serverConn is the in-process transport Connect returns.
type serverConn struct {
	srv  *Server
	exec sync.Mutex // serializes commands on srv

	mu     sync.Mutex // guards the fields below
	ready  sync.Cond  // signalled when a reply is queued or the conn closes
	unread string     // the queued reply lines Recv has not returned
	closed bool
}

// Connect returns the in-process transport to srv, the OS pipe of the
// paper's Fig. 4 when tracker and MiniGDB share a process. Send runs the
// command on the calling goroutine and queues its reply, the records and
// then the "(gdb)" prompt, for Recv: no goroutine or channel stands between
// a command and its reply, and Recv returns the reply's lines as slices of
// the one string the server copied it into. An -exec-interrupt line goes
// straight to srv.Interrupt and gets no reply, as Serve's reader treats
// it, so Client.Interrupt from another goroutine stops a running
// -exec-continue. The lines are those StdioConn carries to a minigdb child.
func Connect(srv *Server) Conn {
	c := &serverConn{srv: srv}
	c.ready.L = &c.mu
	return c
}

// Send implements Conn.
func (c *serverConn) Send(line string) error {
	token, op, args, err := SplitCommand(line)
	if err == nil && op == "-exec-interrupt" {
		c.srv.Interrupt()
		return nil
	}
	c.exec.Lock()
	defer c.exec.Unlock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed || c.srv.closed {
		return ErrClosed
	}
	if strings.TrimSpace(line) == "" {
		return nil
	}
	reply := c.srv.run(token, op, args, err)
	c.mu.Lock()
	c.unread += reply
	c.mu.Unlock()
	c.ready.Signal()
	return nil
}

// Recv implements Conn. With no reply queued it blocks until Close, as a
// hung debugger would.
func (c *serverConn) Recv() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.unread == "" && !c.closed {
		c.ready.Wait()
	}
	if c.closed {
		return "", ErrClosed
	}
	line, rest, _ := strings.Cut(c.unread, "\n")
	c.unread = ""
	if rest != "" { // an empty slice of the reply would keep it alive
		c.unread = rest
	}
	return line, nil
}

// Close implements Conn.
func (c *serverConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.ready.Broadcast()
	return nil
}

// StdioConn adapts a reader/writer pair (subprocess stdin/stdout, sockets)
// into a line transport.
type StdioConn struct {
	r      *bufio.Reader
	w      io.Writer
	closer io.Closer
	mu     sync.Mutex
}

// NewStdioConn wraps r/w; closer (may be nil) is closed by Close.
func NewStdioConn(r io.Reader, w io.Writer, closer io.Closer) *StdioConn {
	return &StdioConn{r: bufio.NewReader(r), w: w, closer: closer}
}

// Send implements Conn.
func (c *StdioConn) Send(line string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := io.WriteString(c.w, line+"\n")
	return err
}

// Recv implements Conn.
func (c *StdioConn) Recv() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil && line == "" {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// Close implements Conn.
func (c *StdioConn) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}
