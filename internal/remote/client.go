package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"easytracker/internal/core"
	"easytracker/internal/obs"
	"easytracker/internal/query"
)

// wireConn is one client connection with request/response demultiplexing:
// frames are written under a mutex, a reader goroutine routes responses to
// their waiting callers by ID. That lets Interrupt (and heartbeats) travel
// while a control command's response is still outstanding.
type wireConn struct {
	nc     net.Conn
	wmu    sync.Mutex
	nextID atomic.Uint64

	// lastRecv is the unix-nano time of the last frame received — any frame,
	// including ping acks. The heartbeat watchdog reads it to notice a server
	// that went silent while a Resume response is outstanding.
	lastRecv atomic.Int64

	pmu       sync.Mutex
	pending   map[uint64]chan *Response
	dead      error // set once the read loop exits; guarded by pmu
	failCause error // local diagnosis injected before closing; guarded by pmu
	done      chan struct{}
}

func dialWire(dial func(addr string) (net.Conn, error), addr string) (*wireConn, error) {
	nc, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c := &wireConn{
		nc:      nc,
		pending: map[uint64]chan *Response{},
		done:    make(chan struct{}),
	}
	c.lastRecv.Store(time.Now().UnixNano())
	go c.readLoop()
	return c, nil
}

func (c *wireConn) readLoop() {
	var err error
	for {
		var payload []byte
		payload, err = ReadFrame(c.nc)
		if err != nil {
			break
		}
		c.lastRecv.Store(time.Now().UnixNano())
		// The response's trace context (the server's executor span) is not
		// needed client-side — the client's own call span already brackets
		// the round trip — but the framing must still be consumed.
		_, body, tail, perr := splitPayload(payload)
		if perr != nil {
			err = perr
			break
		}
		var resp Response
		if err = json.Unmarshal(body, &resp); err != nil {
			err = fmt.Errorf("remote: bad response frame: %w", err)
			break
		}
		if tail != nil {
			resp.State = tail
		}
		c.pmu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.pmu.Unlock()
		if ch == nil {
			// The server answers each request exactly once, so an ID nobody
			// is waiting for means the stream is corrupted (a flipped ID bit
			// leaves the real caller waiting forever while heartbeat acks
			// keep the watchdog quiet). Kill the connection and let the
			// redial policy rebuild it.
			err = fmt.Errorf("remote: unsolicited response id %d (corrupted stream?)", resp.ID)
			break
		}
		ch <- &resp
	}
	c.pmu.Lock()
	if c.failCause != nil {
		// A local watchdog closed the socket; its diagnosis beats the
		// secondary "use of closed connection" the read reported.
		err = c.failCause
	}
	// Double-%w: the dead error satisfies errors.Is(ErrSessionLost) AND
	// keeps the transport cause's type — errors.As still digs out a
	// *DecodeError after the loss crosses markDead and TrackerError.
	c.dead = fmt.Errorf("%w: %w", core.ErrSessionLost, err)
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.pmu.Unlock()
	close(c.done)
	c.nc.Close()
}

// fail injects a local failure diagnosis and closes the socket, unblocking
// the read loop and every pending caller. First diagnosis wins.
func (c *wireConn) fail(cause error) {
	c.pmu.Lock()
	if c.failCause == nil {
		c.failCause = cause
	}
	c.pmu.Unlock()
	c.nc.Close()
}

// startHeartbeat runs the client half of the heartbeat contract:
// ping every interval, and declare the server dead — closing the connection
// so a blocked Resume unblocks with a session-lost error — after misses
// consecutive intervals with no frame of any kind from the server.
func (c *wireConn) startHeartbeat(interval time.Duration, misses int) {
	if interval <= 0 {
		return
	}
	if misses < 1 {
		misses = DefaultHeartbeatMisses
	}
	window := interval * time.Duration(misses)
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-tick.C:
				silent := time.Since(time.Unix(0, c.lastRecv.Load()))
				if silent >= window {
					c.fail(fmt.Errorf("remote: server silent for %v (%d missed heartbeats)", silent.Round(time.Millisecond), misses))
					return
				}
				c.post(&Request{Op: OpPing})
			}
		}
	}()
}

// send writes one request frame and registers its response slot. tc is the
// caller's in-flight span, stamped into the frame header.
func (c *wireConn) send(req *Request, tc *TraceContext) (chan *Response, error) {
	req.ID = c.nextID.Add(1)
	ch := make(chan *Response, 1)
	c.pmu.Lock()
	if c.dead != nil {
		dead := c.dead
		c.pmu.Unlock()
		return nil, dead
	}
	c.pending[req.ID] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	err := WriteFrame(c.nc, req, tc)
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, req.ID)
		dead := c.dead
		c.pmu.Unlock()
		if dead == nil {
			dead = fmt.Errorf("%w: %v", core.ErrSessionLost, err)
		}
		return nil, dead
	}
	return ch, nil
}

// call performs one synchronous round trip.
func (c *wireConn) call(req *Request) (*Response, error) {
	return c.callCtx(req, nil)
}

// callCtx is call with the caller's span stamped into the frame header.
func (c *wireConn) callCtx(req *Request, tc *TraceContext) (*Response, error) {
	ch, err := c.send(req, tc)
	if err != nil {
		return nil, err
	}
	resp, ok := <-ch
	if !ok {
		c.pmu.Lock()
		dead := c.dead
		c.pmu.Unlock()
		return nil, dead
	}
	return resp, nil
}

// callTimeout is call with a deadline: a peer that accepted the socket but
// never answers (a black-holing network, a wedged server) fails the round
// trip instead of blocking forever. On expiry the connection is killed —
// a half-done exchange is not resumable.
func (c *wireConn) callTimeout(req *Request, d time.Duration) (*Response, error) {
	ch, err := c.send(req, nil)
	if err != nil {
		return nil, err
	}
	var expiry <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		expiry = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.pmu.Lock()
			dead := c.dead
			c.pmu.Unlock()
			return nil, dead
		}
		return resp, nil
	case <-expiry:
		err := fmt.Errorf("remote: no response to %s within %v", req.Op, d)
		c.fail(err)
		return nil, err
	}
}

// post fires a request and consumes its response in the background —
// Interrupt's shape: the frame must go out now, nobody waits for the ack.
func (c *wireConn) post(req *Request) {
	ch, err := c.send(req, nil)
	if err != nil {
		return
	}
	go func() { <-ch }()
}

func (c *wireConn) close() {
	c.nc.Close()
	<-c.done
}

// Tracker drives a tracker session hosted by a remote Server over the wire
// protocol. It implements the full core.Tracker contract plus every
// capability surface, gated through core.CapabilityGate to present exactly
// the backend's capability set. Like every tracker it is driven by one tool
// goroutine; Interrupt alone is safe from any goroutine.
type Tracker struct {
	core.Arming

	addr string
	kind string

	// dialer opens the transport; the default dials TCP with the effective
	// dial timeout. Tests and chaos harnesses inject virtual networks here.
	dialer      func(addr string) (net.Conn, error)
	dialTimeout time.Duration

	// connMu guards the conn pointer only, so Interrupt can reach the wire
	// without taking the tracker mutex a blocked control command holds.
	connMu sync.Mutex
	conn   *wireConn

	mu   sync.Mutex
	caps core.CapabilitySet

	// tracer records client-side call spans when span tracing was requested
	// at load time; nil means tracing off (spans become no-ops).
	tracer *obs.Tracer
	// met is the client-side instrument panel (redial counters); nil-safe
	// off until load-time observability enables it.
	met *obs.Metrics

	// Replay journal, mirroring the MiniGDB session layer: everything
	// needed to rebuild the session on the server after a connection loss.
	path       string
	spec       *LoadSpec
	stdout     io.Writer
	stderr     io.Writer
	probes     []core.Probe
	sub        string // the journaled Subscribe expression; "" is none
	loaded     bool
	started    bool
	recoveries int                // outages survived so far
	redial     *core.RedialPolicy // nil means DefaultRedialPolicy
	rng        uint64             // splitmix64 state for backoff jitter
	deadErr    error

	// Status cache, refreshed from every response; PauseReason, ExitCode,
	// Position and LastLine cost no round trips.
	reason   core.PauseReason
	exited   bool
	exitCode int
	file     string
	line     int
	lastLine int

	// ttPos/ttLen mirror the backend's time-travel cursor from the last
	// Status that carried one (ttPos -1 before Start). ttPos is part of the
	// journal: after a reconnect, replay re-seeks it so the session comes
	// back inspecting the same recorded step. Cached reads are sound —
	// the cursor only moves under this tracker's own single driver.
	ttPos int
	ttLen int

	// stateCache is the State the tool read at the current pause; while it
	// is set, the next control op asks for the next pause's State
	// (WantState). stateRaw holds the codec bytes such a response brought,
	// decoded by the first inspection call. Both drop at every control op,
	// at Terminate and on reconnect.
	stateCache *core.State
	stateRaw   []byte
	srcCache   []string
}

// ConnectOption customizes Connect.
type ConnectOption func(*Tracker)

// WithDialer replaces the transport dialer — the seam a chaos harness or a
// virtual network plugs into. The function receives the address given to
// Connect and must return a connected net.Conn.
func WithDialer(dial func(addr string) (net.Conn, error)) ConnectOption {
	return func(t *Tracker) { t.dialer = dial }
}

// WithDialTimeout bounds each dial plus its hello handshake. It applies to
// the initial Connect and to every redial attempt, overriding the redial
// policy's DialTimeout.
func WithDialTimeout(d time.Duration) ConnectOption {
	return func(t *Tracker) { t.dialTimeout = d }
}

// Connect dials a remote tracker server and opens one session of the given
// backend kind ("minipy", "minigdb", "trace"). The returned Tracker is used
// exactly like a local one; Close releases the connection when the tool is
// done (Terminate alone keeps it open so Stats stays readable).
func Connect(addr, kind string, opts ...ConnectOption) (*Tracker, error) {
	t := &Tracker{addr: addr, kind: kind, rng: uint64(time.Now().UnixNano()) | 1, ttPos: -1}
	t.Arming = core.NewArming(t)
	for _, o := range opts {
		o(t)
	}
	if t.dialer == nil {
		t.dialer = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, t.effDialTimeout())
		}
	}
	conn, caps, err := t.dial()
	if err != nil {
		return nil, err
	}
	t.conn = conn
	t.caps = caps
	return t, nil
}

// policy resolves the effective redial policy. Callers hold t.mu (or run
// before the tracker is shared).
func (t *Tracker) policy() core.RedialPolicy {
	if t.redial != nil {
		return *t.redial
	}
	return core.DefaultRedialPolicy()
}

// effDialTimeout is the per-attempt dial + hello deadline: the Connect
// option wins, then the redial policy's DialTimeout.
func (t *Tracker) effDialTimeout() time.Duration {
	if t.dialTimeout > 0 {
		return t.dialTimeout
	}
	return t.policy().DialTimeout
}

// randFloat advances the jitter generator (splitmix64). Callers hold t.mu.
func (t *Tracker) randFloat() float64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11) / (1 << 53)
}

// dial opens a connection and performs the hello handshake, bounded by the
// effective dial timeout so an attempt into a black-holing network fails
// instead of eating the whole redial budget.
func (t *Tracker) dial() (*wireConn, core.CapabilitySet, error) {
	conn, err := dialWire(t.dialer, t.addr)
	if err != nil {
		return nil, core.CapabilitySet{}, fmt.Errorf("remote: connect %s: %w", t.addr, err)
	}
	resp, err := conn.callTimeout(&Request{Op: OpHello, Kind: t.kind}, t.effDialTimeout())
	if err != nil {
		conn.close()
		return nil, core.CapabilitySet{}, err
	}
	if resp.Err != nil {
		conn.close()
		return nil, core.CapabilitySet{}, resp.Err.DecodeError()
	}
	// A server configured for heartbeats told us to beat; hold up our half.
	conn.startHeartbeat(time.Duration(resp.HBNs), resp.HBMiss)
	var caps core.CapabilitySet
	if resp.Caps != nil {
		caps = *resp.Caps
	}
	return conn, caps, nil
}

// Close releases the connection. The remote session (and its inferior, if
// still alive) is torn down by the server.
func (t *Tracker) Close() error {
	t.connMu.Lock()
	conn := t.conn
	t.conn = nil
	t.connMu.Unlock()
	if conn != nil {
		conn.close()
	}
	return nil
}

// Kind returns the backend tracker kind this session drives.
func (t *Tracker) Kind() string { return t.kind }

// Capabilities returns the backend's capability set as advertised in the
// connection handshake.
func (t *Tracker) Capabilities() core.CapabilitySet {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.caps
}

// SupportsCapability implements core.CapabilityGate: the proxy's concrete
// type has every extension method, but it only truly provides what its
// backend advertised in the handshake.
func (t *Tracker) SupportsCapability(ptr any) bool {
	t.mu.Lock()
	caps := t.caps
	t.mu.Unlock()
	switch ptr.(type) {
	case *core.RegisterInspector:
		return caps.Registers
	case *core.MemoryInspector:
		return caps.Memory
	case *core.HeapInspector:
		return caps.Heap
	case *core.StateProvider:
		return caps.State
	case *core.StatsProvider:
		return caps.Stats
	case *core.Interrupter:
		return caps.Interrupt
	case *core.ConditionalBreaker:
		return caps.ConditionalBreak
	case *core.SpanProvider:
		return caps.Spans
	case *core.TimeTraveler:
		return caps.TimeTravel
	case *core.ReverseWatcher:
		return caps.ReverseWatch
	default:
		return true
	}
}

// do performs one round trip, refreshing the status cache from the
// response. Transport loss funnels into recover (one reconnect-and-replay
// attempt); server-side errors come back decoded with their errors.Is
// identity intact. Callers hold t.mu.
func (t *Tracker) do(op string, req *Request) (*Response, error) {
	if t.deadErr != nil {
		return nil, t.sessionDead(op)
	}
	t.connMu.Lock()
	conn := t.conn
	t.connMu.Unlock()
	if conn == nil {
		return nil, core.WrapErr("remote", op, t.file, t.line, errors.New("remote: tracker is closed"))
	}
	sp := t.tracer.Start(core.SpanCallPrefix + req.Op)
	var tc *TraceContext
	if ctx := sp.Context(); ctx.Valid() {
		tc = &TraceContext{TraceID: ctx.TraceID, SpanID: ctx.SpanID}
	}
	resp, err := conn.callCtx(req, tc)
	sp.EndErr(err)
	if err != nil {
		return nil, t.recover(op, err)
	}
	if resp.Status != nil {
		t.applyStatus(resp.Status)
	}
	if resp.Caps != nil {
		// Load responses carry a re-probed capability set: some
		// capabilities are load-dependent (TimeTravel follows
		// WithRecording), so the hello-time set gets refined here.
		t.caps = *resp.Caps
	}
	if resp.Err != nil {
		return resp, resp.Err.DecodeError()
	}
	return resp, nil
}

func (t *Tracker) applyStatus(st *Status) {
	if len(st.Reason) > 0 {
		if r, err := core.DecodePauseReasonJSON(st.Reason); err == nil {
			t.reason = r
		}
	}
	t.exited, t.exitCode = st.Exited, st.ExitCode
	t.file, t.line = st.File, st.Line
	t.lastLine = st.LastLine
	if st.TTLen > 0 {
		t.ttPos, t.ttLen = st.TTPos-1, st.TTLen
	}
	if st.Stdout != "" && t.stdout != nil {
		io.WriteString(t.stdout, st.Stdout)
	}
	if st.Stderr != "" && t.stderr != nil {
		io.WriteString(t.stderr, st.Stderr)
	}
}

// recover is the connection-loss path: the policy-driven redial loop that
// replaced the old one-shot reconnect. Each outage gets up to
// MaxAttempts dials under capped exponential backoff with jitter, bounded
// by the policy's wall-clock budget; a retry-after hint from the server
// (busy/draining refusals) overrides the computed backoff. On success the
// session lives again — paused at its entry point, journal replayed,
// execution progress lost — and the failing call returns a
// RecoveryRestarted error. Exhausting the policy (attempts, budget, or the
// per-session MaxRecoveries outage cap) retires the tracker. Callers hold
// t.mu.
func (t *Tracker) recover(op string, cause error) error {
	pol := t.policy()
	if t.recoveries >= pol.MaxRecoveries {
		return t.markDead(op, cause, nil)
	}
	t.recoveries++

	t.connMu.Lock()
	old := t.conn
	t.conn = nil
	t.connMu.Unlock()
	if old != nil {
		old.close()
	}

	var deadline time.Time
	if pol.Budget > 0 {
		deadline = time.Now().Add(pol.Budget)
	}
	lastErr := cause
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		delay := pol.Delay(attempt, t.randFloat())
		if hint := core.RetryAfterHint(lastErr); hint > 0 {
			// The server said when to come back; believe it, within the cap.
			if hint > pol.MaxDelay {
				hint = pol.MaxDelay
			}
			delay = hint
		}
		if delay > 0 {
			if !deadline.IsZero() && time.Now().Add(delay).After(deadline) {
				break // the wait alone would blow the budget
			}
			time.Sleep(delay)
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		t.met.Counter(core.CtrRemoteRedials).Inc()
		sp := t.tracer.Start("remote.redial")
		conn, caps, err := t.dial()
		if err != nil {
			sp.EndErr(err)
			lastErr = err
			continue
		}
		// Hello caps first; replay's load response refines them (load-
		// dependent capabilities like TimeTravel).
		t.caps = caps
		lost, rerr, permanent := t.replay(conn)
		sp.EndErr(rerr)
		if rerr != nil {
			conn.close()
			if permanent {
				// The server answered and rejected the journal — more
				// dialing cannot fix that.
				return t.markDead(op, cause, rerr)
			}
			lastErr = rerr
			continue
		}
		t.connMu.Lock()
		t.conn = conn
		t.connMu.Unlock()
		t.stateCache, t.stateRaw = nil, nil
		return &core.TrackerError{
			Op:       op,
			Kind:     "remote[" + t.kind + "]",
			File:     t.file,
			Line:     t.line,
			Recovery: core.RecoveryRestarted,
			Lost:     lost,
			Err:      cause,
		}
	}
	t.met.Counter(core.CtrRemoteRedialGiveups).Inc()
	return t.markDead(op, cause, lastErr)
}

// replay rebuilds the session on a fresh connection from the journal:
// load, start (if the old session had started), every armed probe in
// order, then the subscription. Items the server rejects are reported as
// lost, in core.Probe's wording, not fatal — the paper's lost-item model.
// permanent distinguishes a server that answered and rejected the journal
// (no point redialing) from a transport failure mid-replay (the next
// attempt may succeed).
func (t *Tracker) replay(conn *wireConn) (lost []string, err error, permanent bool) {
	if !t.loaded {
		return nil, nil, false
	}
	// Capture the journaled replay position now: the OpStart status below
	// reports the fresh session at entry and would overwrite it.
	seekPos := t.ttPos
	resp, err := conn.call(&Request{Op: OpLoad, Path: t.path, Load: t.spec})
	if err != nil {
		return nil, err, false
	}
	if resp.Err != nil {
		return nil, resp.Err.DecodeError(), true
	}
	if resp.Caps != nil {
		t.caps = *resp.Caps
	}
	if t.started {
		resp, err := conn.call(&Request{Op: OpStart})
		if err != nil {
			return nil, err, false
		}
		if resp.Err != nil {
			return nil, resp.Err.DecodeError(), true
		}
		if resp.Status != nil {
			t.applyStatus(resp.Status)
		}
	}
	for _, p := range t.probes {
		req, _ := probeRequest(p) // p was armed, so its kind maps
		resp, err := conn.call(req)
		if err != nil {
			return nil, err, false
		}
		if resp.Err != nil {
			lost = append(lost, p.String())
		}
	}
	if t.sub != "" {
		resp, err := conn.call(&Request{Op: OpSubscribe, Cond: t.sub})
		if err != nil {
			return nil, err, false
		}
		if resp.Err != nil {
			lost = append(lost, "subscription "+t.sub)
		}
	}
	// The session was inspecting a recorded step: seek the rebuilt session
	// back to it. A rejection (a live inferior restarted from entry has a
	// near-empty recording) is a lost item, not a replay failure — only a
	// deterministic trace-backed session can guarantee the position exists.
	if seekPos >= 0 {
		resp, err := conn.call(&Request{Op: OpSeek, Step: seekPos})
		if err != nil {
			return lost, err, false
		}
		if resp.Err != nil {
			lost = append(lost, "seek position "+strconv.Itoa(seekPos))
		} else if resp.Status != nil {
			t.applyStatus(resp.Status)
		}
	}
	return lost, nil, false
}

// markDead retires the tracker after the redial policy was exhausted (or
// its recovery budget was already spent). Every later call returns the
// session-lost error; errors.Is(err, core.ErrSessionLost) always holds.
func (t *Tracker) markDead(op string, cause error, detail error) error {
	if detail != nil && !errors.Is(cause, detail) {
		cause = fmt.Errorf("%w (last redial: %v)", cause, detail)
	}
	if !errors.Is(cause, core.ErrSessionLost) {
		cause = fmt.Errorf("%w: %w", core.ErrSessionLost, cause)
	}
	t.deadErr = cause
	t.exited, t.exitCode = true, -1
	t.reason = core.PauseReason{Type: core.PauseExited, ExitCode: -1}
	t.connMu.Lock()
	conn := t.conn
	t.conn = nil
	t.connMu.Unlock()
	if conn != nil {
		conn.close()
	}
	return &core.TrackerError{
		Op:       op,
		Kind:     "remote[" + t.kind + "]",
		File:     t.file,
		Line:     t.line,
		Recovery: core.RecoveryFailed,
		Err:      cause,
	}
}

func (t *Tracker) sessionDead(op string) error {
	return &core.TrackerError{
		Op:       op,
		Kind:     "remote[" + t.kind + "]",
		File:     t.file,
		Line:     t.line,
		Recovery: core.RecoveryFailed,
		Err:      t.deadErr,
	}
}

// LoadProgram implements core.Tracker. The client's filesystem is
// authoritative: when the file is readable locally its text ships in the
// load spec, so server and client need not share a disk. Stdin is read in
// full and shipped; stdout/stderr writers stay local and receive the
// server's output deltas.
func (t *Tracker) LoadProgram(path string, opts ...core.LoadOption) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.loaded {
		return core.WrapErr("remote", "LoadProgram", t.file, t.line,
			errors.New("remote: program already loaded"))
	}
	cfg := core.ApplyLoadOptions(opts)
	t.tracer = cfg.Obs.Tracer("remote[" + t.kind + "]")
	if cfg.Obs.Enabled {
		// Client-side panel: redial counters live here (the server cannot
		// count attempts that never reach it).
		t.met = obs.New(obs.Config{Enabled: true, Events: cfg.Obs.Events})
	}
	if cfg.Redial != nil {
		t.redial = cfg.Redial
	}
	spec := specFromConfig(cfg)
	if spec.Source == "" {
		if data, err := os.ReadFile(path); err == nil {
			spec.Source = string(data)
		}
	}
	if cfg.Stdin != nil {
		data, err := io.ReadAll(cfg.Stdin)
		if err != nil {
			return core.WrapErr("remote", "LoadProgram", "", 0, fmt.Errorf("reading stdin: %w", err))
		}
		spec.Stdin = string(data)
	}
	t.stdout, t.stderr = cfg.Stdout, cfg.Stderr

	_, err := t.do("LoadProgram", &Request{Op: OpLoad, Path: path, Load: spec})
	if err != nil {
		return err
	}
	t.path, t.spec = path, spec
	t.loaded = true
	return nil
}

// control runs one execution-resuming op, forward or reverse. The pause
// moves, so the cached State goes; a tool that read the State at the pause
// it is leaving likely reads the next one too, so the request asks for it
// to ride back on the response.
func (t *Tracker) control(op string, req *Request) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	req.WantState = t.stateCache != nil
	t.stateCache, t.stateRaw = nil, nil
	resp, err := t.do(op, req)
	if err != nil {
		return err
	}
	t.stateRaw = resp.State
	if req.Op == OpStart {
		t.started = true
	}
	return nil
}

// Start implements core.Tracker.
func (t *Tracker) Start() error { return t.control("Start", &Request{Op: OpStart}) }

// Resume implements core.Tracker.
func (t *Tracker) Resume() error { return t.control("Resume", &Request{Op: OpResume}) }

// Step implements core.Tracker.
func (t *Tracker) Step() error { return t.control("Step", &Request{Op: OpStep}) }

// Next implements core.Tracker.
func (t *Tracker) Next() error { return t.control("Next", &Request{Op: OpNext}) }

// Terminate implements core.Tracker. The connection stays open so Stats and
// the status cache remain readable; Close releases it.
func (t *Tracker) Terminate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.deadErr != nil {
		return nil // retired sessions terminate trivially
	}
	t.stateCache, t.stateRaw = nil, nil
	_, err := t.do("Terminate", &Request{Op: OpTerminate})
	var te *core.TrackerError
	if errors.As(err, &te) && te.Recovery != core.RecoveryNone {
		// Reconnect-and-replay makes no sense for Terminate: the
		// connection loss already killed the remote session.
		return nil
	}
	return err
}

// Arm implements core.Tracker: one journaled round trip per probe. A
// condition is validated client-side first so a bad expression fails with a
// typed ErrBadQuery before anything crosses the socket; the backend
// compiles its own copy at arm time.
func (t *Tracker) Arm(p core.Probe) error {
	op := p.Op()
	req, err := probeRequest(p)
	if err == nil && p.Condition != "" {
		_, err = query.Compile(p.Condition)
	}
	if err != nil {
		return core.WrapErr("remote["+t.kind+"]", op, "", 0, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.do(op, req); err != nil {
		return err
	}
	t.probes = append(t.probes, p)
	return nil
}

// ConditionalProbes implements core.ConditionalBreaker, true exactly when
// the backend advertised the capability in the handshake.
func (t *Tracker) ConditionalProbes() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.caps.ConditionalBreak
}

// Subscribe installs a server-side pause filter: while the subscription is
// active, Resume loops on the server until a pause matches expr (or the
// inferior exits, or supervision interrupts), so non-matching pauses never
// cross the socket. An empty expr clears the subscription. The subscription
// is journaled and survives reconnect-and-replay.
func (t *Tracker) Subscribe(expr string) error {
	if expr != "" {
		if _, err := query.Compile(expr); err != nil {
			return core.WrapErr("remote["+t.kind+"]", "Subscribe", "", 0, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.do("Subscribe", &Request{Op: OpSubscribe, Cond: expr})
	if err == nil {
		// A new expression replaces any journaled predecessor; clearing
		// drops it.
		t.sub = expr
	}
	return err
}

// StepBack implements core.TimeTraveler (gated on the backend's capability).
// Reverse ops move the replay cursor as forward ones move the inferior; the
// landing position rides back in the Status.
func (t *Tracker) StepBack() error { return t.control("StepBack", &Request{Op: OpStepBack}) }

// ResumeBack implements core.TimeTraveler (gated).
func (t *Tracker) ResumeBack() error { return t.control("ResumeBack", &Request{Op: OpResumeBack}) }

// NextBack implements core.TimeTraveler (gated).
func (t *Tracker) NextBack() error { return t.control("NextBack", &Request{Op: OpNextBack}) }

// SeekTo implements core.TimeTraveler (gated).
func (t *Tracker) SeekTo(step int) error {
	return t.control("SeekTo", &Request{Op: OpSeek, Step: step})
}

// Pos implements core.TimeTraveler from the status cache: every response on
// a recording session reports the cursor, and only this client's own calls
// move it, so no round trip is needed. It is -1 until a status reports a
// position, as before Start.
func (t *Tracker) Pos() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ttPos
}

// Len implements core.TimeTraveler from the status cache.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ttLen
}

// LastChange implements core.ReverseWatcher (gated): the reverse watchpoint
// query is answered server-side from the recording's delta index.
func (t *Tracker) LastChange(expr string) (*core.VarChange, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	resp, err := t.do("LastChange", &Request{Op: OpLastChange, Var: expr})
	if err != nil {
		return nil, err
	}
	return resp.Change, nil
}

// PauseReason implements core.Tracker from the status cache.
func (t *Tracker) PauseReason() core.PauseReason {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reason
}

// ExitCode implements core.Tracker from the status cache.
func (t *Tracker) ExitCode() (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exitCode, t.exited
}

// Position implements core.Tracker from the status cache.
func (t *Tracker) Position() (string, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.file, t.line
}

// LastLine implements core.Tracker from the status cache.
func (t *Tracker) LastLine() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLine
}

// state returns the full snapshot for the current pause: cached, decoded
// from the bytes the last control response brought, or fetched with
// OpState. Callers hold t.mu.
func (t *Tracker) state(op string) (*core.State, error) {
	if t.stateCache != nil {
		return t.stateCache, nil
	}
	raw := t.stateRaw
	t.stateRaw = nil
	if raw == nil {
		resp, err := t.do(op, &Request{Op: OpState})
		if err != nil {
			return nil, err
		}
		raw = resp.State
	}
	var st core.State
	if err := st.UnmarshalJSON(raw); err != nil {
		return nil, core.WrapErr("remote", op, t.file, t.line, fmt.Errorf("decoding state: %w", err))
	}
	t.stateCache = &st
	return &st, nil
}

// State implements core.StateProvider (gated on the backend's capability).
func (t *Tracker) State() (*core.State, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state("State")
}

// CurrentFrame implements core.Tracker via the snapshot.
func (t *Tracker) CurrentFrame() (*core.Frame, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := t.state("CurrentFrame")
	if err != nil {
		return nil, err
	}
	return st.Frame, nil
}

// GlobalVariables implements core.Tracker via the snapshot.
func (t *Tracker) GlobalVariables() ([]*core.Variable, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := t.state("GlobalVariables")
	if err != nil {
		return nil, err
	}
	return st.Globals, nil
}

// SourceLines implements core.Tracker; the listing is immutable per load,
// so one round trip serves every later call.
func (t *Tracker) SourceLines() ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.srcCache != nil {
		return t.srcCache, nil
	}
	resp, err := t.do("SourceLines", &Request{Op: OpSource})
	if err != nil {
		return nil, err
	}
	t.srcCache = resp.Lines
	return resp.Lines, nil
}

// Interrupt implements core.Interrupter (gated). It travels out of band:
// the frame goes to the server even while a control command's response is
// outstanding, and the server delivers it to the tracker's sticky interrupt
// flag without waiting for the executor.
func (t *Tracker) Interrupt() {
	t.connMu.Lock()
	conn := t.conn
	t.connMu.Unlock()
	if conn == nil {
		return
	}
	conn.post(&Request{Op: OpInterrupt})
}

// Stats implements core.StatsProvider (gated): the snapshot is the
// server-side backend's instrument panel, fetched over the wire.
func (t *Tracker) Stats() *obs.Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	resp, err := t.do("Stats", &Request{Op: OpStats})
	if err != nil {
		return &obs.Snapshot{}
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(resp.Stats, &snap); err != nil {
		return &obs.Snapshot{}
	}
	return &snap
}

// ClientStats returns the client-side instrument snapshot — redial
// attempts and giveups (core.CtrRemoteRedials / CtrRemoteRedialGiveups).
// Distinct from Stats, which fetches the server-side backend's panel; a
// partition is visible only from this side of the wire. Empty unless the
// program was loaded with observability enabled.
func (t *Tracker) ClientStats() *obs.Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.met == nil {
		return &obs.Snapshot{}
	}
	snap := t.met.Snapshot()
	snap.Tracker = "remote[" + t.kind + "]"
	return snap
}

// Spans implements core.SpanProvider (gated): the client-side call spans
// recorded by this proxy. The server's half of each trace (rpc.* and
// backend op spans) lives in the server process; et-spans merges the two
// dumps by trace id.
func (t *Tracker) Spans() []obs.SpanRecord {
	return t.tracer.Spans()
}

// SpanTracer exposes the proxy's tracer so embedding tools can hang their
// own spans off the same ring.
func (t *Tracker) SpanTracer() *obs.Tracer { return t.tracer }

// Registers implements core.RegisterInspector (gated).
func (t *Tracker) Registers() (map[string]uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	resp, err := t.do("Registers", &Request{Op: OpRegs})
	if err != nil {
		return nil, err
	}
	return resp.Regs, nil
}

// ValueAt implements core.MemoryInspector (gated).
func (t *Tracker) ValueAt(addr uint64, size int) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	resp, err := t.do("ValueAt", &Request{Op: OpReadMem, Addr: addr, Size: size})
	if err != nil {
		return nil, err
	}
	return resp.Mem, nil
}

// MemorySegments implements core.MemoryInspector (gated).
func (t *Tracker) MemorySegments() []core.Segment {
	t.mu.Lock()
	defer t.mu.Unlock()
	resp, err := t.do("MemorySegments", &Request{Op: OpSegments})
	if err != nil {
		return nil
	}
	return resp.Segs
}

// HeapBlocks implements core.HeapInspector (gated).
func (t *Tracker) HeapBlocks() (map[uint64]uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	resp, err := t.do("HeapBlocks", &Request{Op: OpHeap})
	if err != nil {
		return nil, err
	}
	blocks := make(map[uint64]uint64, len(resp.Heap))
	for k, v := range resp.Heap {
		a, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return nil, core.WrapErr("remote", "HeapBlocks", t.file, t.line,
				fmt.Errorf("bad heap address %q: %w", k, err))
		}
		blocks[a] = v
	}
	return blocks, nil
}
