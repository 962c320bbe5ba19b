// Package vnet is an in-process virtual network for chaos-testing the
// remote session layer: net.Listener and net.Conn implementations whose
// links misbehave on command. Tests inject partitions (full and
// asymmetric), added latency and jitter, bandwidth caps, byte corruption,
// torn frames (a connection cut after exactly N more bytes, landing mid-
// length-prefix or mid-payload), half-closes and accept-time refusals —
// all deterministic under test control (one seeded generator drives every
// probabilistic fault) and race-clean, so a -race chaos harness can drive
// hundreds of concurrent sessions over one Network.
//
// The model follows the pipenet/virtnet pattern: endpoints are names, a
// link is a directed (from, to) pair, and every fault is a property of a
// link or an endpoint rather than of a socket, so the harness can reach
// into connections it did not create. Blackholing (Partition) models a
// network that silently drops traffic — precisely the failure the
// heartbeat layer exists to detect — while Sever models a reset that both
// ends notice immediately, the failure the redial layer recovers from.
package vnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Dial/accept failures. Deterministic stand-ins for their kernel
// counterparts: a partitioned host fails immediately with ErrUnreachable
// instead of hanging until a dial timeout.
var (
	// ErrUnreachable reports a dial across a partitioned link.
	ErrUnreachable = errors.New("vnet: host unreachable")
	// ErrRefused reports a dial to an address with no listener, an injected
	// accept-time refusal, or a closed listener.
	ErrRefused = errors.New("vnet: connection refused")
	// ErrClosed reports I/O on a connection the local end closed.
	ErrClosed = errors.New("vnet: use of closed connection")
	// ErrSevered reports I/O on a connection the network reset (Sever,
	// SeverAfter, or the remote end vanishing).
	ErrSevered = errors.New("vnet: connection reset")
)

// Addr is a vnet endpoint name.
type Addr struct{ Name string }

// Network implements net.Addr.
func (a Addr) Network() string { return "vnet" }

// String implements net.Addr.
func (a Addr) String() string { return a.Name }

// Faults are the steady-state fault parameters of one directed link.
// The zero value is a perfect link.
type Faults struct {
	// Latency delays every delivery by this much.
	Latency time.Duration
	// Jitter adds a deterministic pseudo-random delay in [0, Jitter).
	Jitter time.Duration
	// Bandwidth caps the link at this many bytes per second; zero is
	// unlimited. Deliveries queue behind a per-receiver watermark, so a
	// large frame delays everything after it.
	Bandwidth int
	// CorruptProb flips one bit in a delivered byte with this per-byte
	// probability (deterministic generator). Corruption happens in flight:
	// the writer sees success, the reader sees garbage.
	CorruptProb float64
}

type link struct{ from, to string }

// linkState is the mutable fault state of one directed link.
type linkState struct {
	faults Faults
	// blackhole silently drops every write on the link (partition).
	blackhole bool
	// severAfter, when > 0, cuts the next connection writing on this link
	// after exactly that many more bytes are delivered — the torn-frame
	// fault. Consumed once.
	severAfter int
}

// Network is one in-process virtual network.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	links     map[link]*linkState
	conns     map[*Conn]struct{}
	refuse    map[string]int
	rng       uint64
}

// New builds an empty network. Seed drives jitter and corruption; the same
// seed and operation sequence replays the same faults.
func New(seed uint64) *Network {
	if seed == 0 {
		seed = 1
	}
	return &Network{
		listeners: map[string]*Listener{},
		links:     map[link]*linkState{},
		conns:     map[*Conn]struct{}{},
		refuse:    map[string]int{},
		rng:       seed,
	}
}

// rand64 advances the deterministic generator (splitmix64). Callers hold mu.
func (n *Network) rand64() uint64 {
	n.rng += 0x9e3779b97f4a7c15
	z := n.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randFloat returns a deterministic float in [0, 1). Callers hold mu.
func (n *Network) randFloat() float64 {
	return float64(n.rand64()>>11) / (1 << 53)
}

// state returns (creating if needed) the fault state of a directed link.
// Callers hold mu.
func (n *Network) state(from, to string) *linkState {
	k := link{from, to}
	ls := n.links[k]
	if ls == nil {
		ls = &linkState{}
		n.links[k] = ls
	}
	return ls
}

// Listen binds a listener to addr.
func (n *Network) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("vnet: %s already bound", addr)
	}
	l := &Listener{net: n, addr: addr}
	l.cond = sync.NewCond(&l.mu)
	n.listeners[addr] = l
	return l, nil
}

// Dial opens a connection from the named client endpoint to a listening
// address. It fails immediately with ErrUnreachable across a partition and
// ErrRefused when nothing listens, the listener is closed, or an injected
// refusal is pending.
func (n *Network) Dial(from, to string) (net.Conn, error) {
	n.mu.Lock()
	if n.links[link{from, to}] != nil && n.links[link{from, to}].blackhole ||
		n.links[link{to, from}] != nil && n.links[link{to, from}].blackhole {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	if k := n.refuse[to]; k > 0 {
		n.refuse[to] = k - 1
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (injected refusal)", ErrRefused, to)
	}
	l := n.listeners[to]
	if l == nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrRefused, to)
	}
	client, server := n.pair(from, to)
	n.conns[client] = struct{}{}
	n.conns[server] = struct{}{}
	n.mu.Unlock()

	if !l.deliver(server) {
		n.drop(client, server)
		return nil, fmt.Errorf("%w: %s", ErrRefused, to)
	}
	return client, nil
}

// Dialer returns a dial function bound to a client endpoint name, the shape
// the remote client's dialer seam expects.
func (n *Network) Dialer(from string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) { return n.Dial(from, addr) }
}

// pair builds the two connected endpoints. Callers hold mu.
func (n *Network) pair(from, to string) (*Conn, *Conn) {
	a := &Conn{net: n, local: from, remote: to, recv: newHalfPipe()}
	b := &Conn{net: n, local: to, remote: from, recv: newHalfPipe()}
	a.peer, b.peer = b, a
	return a, b
}

// drop unregisters both endpoints of a never-accepted pair. Severs first so
// any racing writer errors out rather than writing into a leaked pipe.
func (n *Network) drop(a, b *Conn) {
	a.sever(ErrRefused)
	b.sever(ErrRefused)
	n.mu.Lock()
	delete(n.conns, a)
	delete(n.conns, b)
	n.mu.Unlock()
}

// SetFaults installs the steady-state fault parameters of the directed link
// from -> to, replacing any previous setting.
func (n *Network) SetFaults(from, to string, f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.state(from, to).faults = f
}

// PartitionOneWay blackholes the directed link from -> to: every write in
// that direction is silently dropped (the writer sees success), and dials
// between the two endpoints fail with ErrUnreachable. The reverse direction
// keeps flowing — the asymmetric partition a heartbeat detects.
func (n *Network) PartitionOneWay(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.state(from, to).blackhole = true
}

// Partition blackholes both directions between a and b.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.state(a, b).blackhole = true
	n.state(b, a).blackhole = true
}

// Heal removes the partition between a and b (both directions). Traffic
// dropped while partitioned stays lost, as on a real network.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.state(a, b).blackhole = false
	n.state(b, a).blackhole = false
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ls := range n.links {
		ls.blackhole = false
	}
}

// Sever resets every live connection between a and b (both orientations):
// pending deliveries drain, then both ends fail with ErrSevered. This is
// the TCP-reset-style fault the redial layer recovers from.
func (n *Network) Sever(a, b string) {
	n.mu.Lock()
	var hit []*Conn
	for c := range n.conns {
		if (c.local == a && c.remote == b) || (c.local == b && c.remote == a) {
			hit = append(hit, c)
		}
	}
	n.mu.Unlock()
	for _, c := range hit {
		c.sever(ErrSevered)
	}
}

// SeverAfter arms the torn-frame fault on the directed link from -> to: the
// next connection writing on the link delivers exactly nbytes more bytes and
// is then cut — the reader drains the torn bytes and gets a clean EOF
// mid-frame, the writer is reset. Position nbytes inside a length prefix or
// a payload to tear a frame at that exact boundary. One-shot.
func (n *Network) SeverAfter(from, to string, nbytes int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nbytes < 1 {
		nbytes = 1
	}
	n.state(from, to).severAfter = nbytes
}

// RefuseNext makes the next k dials to addr fail with ErrRefused before
// reaching the listener — the accept-time refusal fault.
func (n *Network) RefuseNext(addr string, k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.refuse[addr] += k
}

// Listener implements net.Listener for one bound address.
type Listener struct {
	net  *Network
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Conn
	closed bool
}

// deliver hands an accepted endpoint to Accept; false when the listener is
// closed.
func (l *Listener) deliver(c *Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.queue = append(l.queue, c)
	l.cond.Broadcast()
	return true
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.queue) > 0 {
		c := l.queue[0]
		l.queue = l.queue[1:]
		return c, nil
	}
	return nil, fmt.Errorf("vnet: listener %s closed", l.addr)
}

// Close implements net.Listener. Queued, never-accepted connections are
// refused.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	pend := l.queue
	l.queue = nil
	l.cond.Broadcast()
	l.mu.Unlock()

	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	for _, c := range pend {
		c.sever(ErrRefused)
		c.peer.sever(ErrRefused)
	}
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return Addr{Name: l.addr} }

// chunk is one in-flight delivery.
type chunk struct {
	data []byte
	at   time.Time // earliest read time (latency/bandwidth model)
}

// halfPipe is the receive buffer of one connection direction.
type halfPipe struct {
	mu        sync.Mutex
	cond      *sync.Cond
	chunks    []chunk
	watermark time.Time // delivery-order floor for the bandwidth model
	wclosed   bool      // writer half-closed: EOF after the buffer drains
	severed   error     // reset: returned after the buffer drains
	rdeadline time.Time
}

func newHalfPipe() *halfPipe {
	p := &halfPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// timeoutError implements net.Error for expired deadlines.
type timeoutError struct{}

func (timeoutError) Error() string   { return "vnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// Conn is one endpoint of a virtual connection.
type Conn struct {
	net    *Network
	local  string
	remote string
	peer   *Conn
	recv   *halfPipe

	wmu       sync.Mutex
	wclosed   bool
	wdeadline time.Time
	closed    bool
	// werr distinguishes a network reset from a local Close on the write
	// path; nil means ErrClosed.
	werr error
}

// Read implements net.Conn: it drains delivered data first, then reports
// half-close (io.EOF) or reset, honoring the read deadline.
func (c *Conn) Read(b []byte) (int, error) {
	p := c.recv
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		now := time.Now()
		if !p.rdeadline.IsZero() && !now.Before(p.rdeadline) {
			return 0, timeoutError{}
		}
		if len(p.chunks) > 0 {
			ch := &p.chunks[0]
			if !ch.at.After(now) {
				n := copy(b, ch.data)
				if n == len(ch.data) {
					p.chunks = p.chunks[1:]
				} else {
					ch.data = ch.data[n:]
				}
				return n, nil
			}
			// Data exists but is still "in flight": wait for its
			// delivery time (or the deadline, whichever is sooner).
			p.waitUntil(earliest(ch.at, p.rdeadline))
			continue
		}
		if p.severed != nil {
			return 0, p.severed
		}
		if p.wclosed {
			return 0, io.EOF
		}
		if p.rdeadline.IsZero() {
			p.cond.Wait()
		} else {
			p.waitUntil(p.rdeadline)
		}
	}
}

// earliest returns the earlier of two times, treating zero as "never".
func earliest(a, b time.Time) time.Time {
	if b.IsZero() || (!a.IsZero() && a.Before(b)) {
		return a
	}
	return b
}

// waitUntil blocks on the pipe's condition with a wake-up no later than t.
// Callers hold p.mu.
func (p *halfPipe) waitUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		// The moment has passed; yield the lock once so the loop can
		// re-evaluate without spinning hot.
		p.mu.Unlock()
		p.mu.Lock()
		return
	}
	tm := time.AfterFunc(d, p.cond.Broadcast)
	p.cond.Wait()
	tm.Stop()
}

// Write implements net.Conn. The write itself always completes immediately
// (the virtual kernel buffers); faults act on the delivery: blackholed
// links drop it, lossy links corrupt it, latency/bandwidth delay it, and an
// armed SeverAfter tears the connection at an exact byte boundary.
func (c *Conn) Write(b []byte) (int, error) {
	c.wmu.Lock()
	if c.closed {
		err := c.werr
		c.wmu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return 0, err
	}
	if c.wclosed {
		c.wmu.Unlock()
		return 0, fmt.Errorf("vnet: write on half-closed connection")
	}
	if !c.wdeadline.IsZero() && !time.Now().Before(c.wdeadline) {
		c.wmu.Unlock()
		return 0, timeoutError{}
	}
	c.wmu.Unlock()

	// Snapshot the link faults and advance the deterministic generator.
	n := c.net
	n.mu.Lock()
	ls := n.state(c.local, c.remote)
	if ls.blackhole {
		n.mu.Unlock()
		return len(b), nil // dropped in flight; the writer cannot tell
	}
	f := ls.faults
	var delay time.Duration
	delay = f.Latency
	if f.Jitter > 0 {
		delay += time.Duration(n.randFloat() * float64(f.Jitter))
	}
	if f.Bandwidth > 0 {
		delay += time.Duration(len(b)) * time.Second / time.Duration(f.Bandwidth)
	}
	// io.Writer forbids keeping b, and the peer reads data after Write
	// returns: queue a copy, and corrupt only that.
	data := append([]byte(nil), b...)
	if f.CorruptProb > 0 {
		for i := range data {
			if n.randFloat() < f.CorruptProb {
				data[i] ^= 1 << (n.rand64() % 8)
			}
		}
	}
	torn := 0
	if ls.severAfter > 0 {
		if len(data) >= ls.severAfter {
			torn = ls.severAfter
			ls.severAfter = 0
		} else {
			ls.severAfter -= len(data)
		}
	}
	n.mu.Unlock()

	if torn > 0 {
		// Deliver exactly the prefix, then cut. The reader drains the torn
		// bytes and sees a clean EOF mid-frame — the FIN a crashing peer's
		// kernel sends after flushing a partial frame — which is the path
		// that must surface as a typed wire decode error upstream. The
		// writing side is reset outright.
		c.peer.recv.enqueue(data[:torn], delay)
		c.peer.recv.closeWrite()
		c.sever(ErrSevered)
		return len(b), nil
	}
	if p := c.peer; p != nil {
		p.recv.enqueue(data, delay)
	}
	return len(b), nil
}

// enqueue appends one delivery, keeping per-direction ordering under the
// latency/bandwidth model.
func (p *halfPipe) enqueue(data []byte, delay time.Duration) {
	if len(data) == 0 {
		return
	}
	p.mu.Lock()
	if p.severed == nil && !p.wclosed {
		at := time.Now().Add(delay)
		if at.Before(p.watermark) {
			at = p.watermark
		}
		p.watermark = at
		p.chunks = append(p.chunks, chunk{data: data, at: at})
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// sever hard-fails this endpoint: pending deliveries drain, then reads
// return err; writes fail immediately.
func (c *Conn) sever(err error) {
	c.wmu.Lock()
	c.closed = true
	if c.werr == nil {
		c.werr = err
	}
	c.wmu.Unlock()
	p := c.recv
	p.mu.Lock()
	if p.severed == nil {
		p.severed = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Close implements net.Conn: local reads fail, buffered data keeps flowing
// to the peer, which then sees a clean EOF (the FIN model).
func (c *Conn) Close() error {
	c.wmu.Lock()
	already := c.closed
	c.closed = true
	c.wmu.Unlock()
	if already {
		return nil
	}
	p := c.recv
	p.mu.Lock()
	if p.severed == nil {
		p.severed = ErrClosed
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	c.peer.recv.closeWrite()
	c.net.mu.Lock()
	delete(c.net.conns, c)
	c.net.mu.Unlock()
	return nil
}

// CloseWrite half-closes the connection: the peer reads EOF after draining,
// local reads keep working — the shutdown(SHUT_WR) model.
func (c *Conn) CloseWrite() error {
	c.wmu.Lock()
	if c.closed {
		c.wmu.Unlock()
		return ErrClosed
	}
	c.wclosed = true
	c.wmu.Unlock()
	c.peer.recv.closeWrite()
	return nil
}

// closeWrite marks the writer side done; readers get EOF after the drain.
func (p *halfPipe) closeWrite() {
	p.mu.Lock()
	p.wclosed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return Addr{Name: c.local} }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return Addr{Name: c.remote} }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	c.SetWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	p := c.recv
	p.mu.Lock()
	p.rdeadline = t
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn. Writes buffer instantly, so the
// deadline only matters when it has already expired.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wmu.Lock()
	c.wdeadline = t
	c.wmu.Unlock()
	return nil
}
