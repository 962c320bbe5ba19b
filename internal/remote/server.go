package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"easytracker/internal/core"
	"easytracker/internal/obs"
	"easytracker/internal/query"

	// A server is useful without importing the library root, so it pulls in
	// the built-in backends itself.
	_ "easytracker/internal/gdbtracker"
	_ "easytracker/internal/pytracker"
	_ "easytracker/internal/tracetracker"
)

// ErrServerFull is what a refused hello decodes to on the client when the
// server is at its concurrent-session limit. It is core.ErrServerBusy, so
// the sentinel survives the error codec and the client's redial policy can
// classify the refusal as retryable.
var ErrServerFull = core.ErrServerBusy

// ErrDraining is what a refused hello decodes to when the server is
// shutting down; alias of core.ErrServerDraining for the same reason.
var ErrDraining = core.ErrServerDraining

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithMaxSessions caps the number of concurrently live sessions; further
// hellos are refused. Zero or negative means DefaultMaxSessions.
func WithMaxSessions(n int) ServerOption {
	return func(s *Server) { s.maxSessions = n }
}

// WithIdleTimeout evicts sessions whose connection carried no request for d.
// Zero disables eviction.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// WithSessionBudgets imposes per-session resource ceilings: each session's
// effective budgets are the tighter of what its client asked for and these
// caps, so one tenant cannot run away with the server.
func WithSessionBudgets(b core.Budgets) ServerOption {
	return func(s *Server) { s.caps.Budgets = b }
}

// WithSessionExecTimeout caps every session's execution timeout: a resuming
// call server-side never runs longer than d even when the client asked for
// no deadline at all.
func WithSessionExecTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.caps.ExecTimeout = d }
}

// WithRecordingDisabled makes the server ignore clients' time-travel
// recording requests (tenant policy: a recording grows server memory with
// every step of the inferior). Affected sessions load without a recorder
// and their load responses advertise TimeTravel off, so capability-checking
// clients degrade gracefully. Trace-backed sessions are unaffected — their
// replay cursor needs no recorder.
func WithRecordingDisabled() ServerOption {
	return func(s *Server) { s.caps.NoRecording = true }
}

// WithLogf routes the server's diagnostic log lines (admissions, evictions,
// teardown) to f. Discarded by default.
func WithLogf(f func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = f }
}

// WithSpanCapacity sizes the server's span ring (retained completed spans
// across all sessions). Zero or negative picks obs.DefaultSpanCapacity.
func WithSpanCapacity(n int) ServerOption {
	return func(s *Server) { s.spanCap = n }
}

// WithHeartbeat arms liveness heartbeats: every session's hello reply tells
// its client to ping every interval, and a connection that goes completely
// silent for misses consecutive intervals is evicted — even mid-command,
// because total silence from a beating client means the wire is dead, not
// that the session is busy (the idle-eviction inflight guard deliberately
// does not apply). Zero interval disables heartbeats; misses < 1 defaults
// to DefaultHeartbeatMisses.
func WithHeartbeat(interval time.Duration, misses int) ServerOption {
	return func(s *Server) {
		s.hbInterval = interval
		s.hbMisses = misses
	}
}

// WithRetryAfterHint attaches a retry-after hint to admission refusals
// (session limit, draining): the refusal crosses the wire as a
// core.RetryAfterError and the client's redial policy waits that long
// before the next attempt. Zero disables the hint; unset defaults to
// DefaultRetryAfter.
func WithRetryAfterHint(d time.Duration) ServerOption {
	return func(s *Server) { s.retryAfter = d }
}

// DefaultHeartbeatMisses is the silent-interval budget used when
// WithHeartbeat is given a non-positive miss count.
const DefaultHeartbeatMisses = 3

// DefaultRetryAfter is the admission-refusal hint used when
// WithRetryAfterHint is not given.
const DefaultRetryAfter = 500 * time.Millisecond

// DefaultMaxSessions is the admission limit used when WithMaxSessions is
// not given.
const DefaultMaxSessions = 64

// Server hosts tracker sessions for remote clients: one TCP connection is
// one session, driven by its own executor goroutine so the single-driver
// Tracker contract holds per session while many sessions run concurrently.
type Server struct {
	maxSessions int
	idleTimeout time.Duration
	hbInterval  time.Duration
	hbMisses    int
	retryAfter  time.Duration
	spanCap     int
	caps        tenantCaps
	logf        func(string, ...any)
	met         *obs.Metrics
	tracer      *obs.Tracer

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	active    int
	nextSess  uint64
	draining  bool
	closed    bool

	wg sync.WaitGroup
}

// NewServer builds a Server. Its instrument panel and span tracer are
// always on (a server is a long-lived shared process; operators read them
// with Stats/Spans and the -http endpoint).
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		maxSessions: DefaultMaxSessions,
		retryAfter:  DefaultRetryAfter,
		logf:        func(string, ...any) {},
		met:         obs.New(obs.Config{Enabled: true, Events: obs.DefaultEvents}),
		listeners:   map[net.Listener]struct{}{},
		conns:       map[*serverConn]struct{}{},
	}
	for _, o := range opts {
		o(s)
	}
	if s.maxSessions <= 0 {
		s.maxSessions = DefaultMaxSessions
	}
	if s.retryAfter < 0 {
		s.retryAfter = 0
	}
	if s.hbInterval > 0 && s.hbMisses < 1 {
		s.hbMisses = DefaultHeartbeatMisses
	}
	// One ring for the whole process: executor spans and every session
	// backend's op spans land together, so one /spans dump is the full
	// server-side timeline.
	s.tracer = obs.NewTracer("et-serve", s.spanCap)
	return s
}

// Stats returns the server's instrument snapshot (session gauges, frame
// counters, request round-trip latencies).
func (s *Server) Stats() *obs.Snapshot {
	snap := s.met.Snapshot()
	snap.Tracker = "et-serve"
	return snap
}

// Spans returns the server's completed spans — executor spans plus the op
// and MI spans of every session backend, all publishing into one shared
// ring.
func (s *Server) Spans() []obs.SpanRecord {
	return s.tracer.Spans()
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Addr returns the bound address of one serving listener, or nil before
// Serve/ListenAndServe.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ln := range s.listeners {
		return ln.Addr()
	}
	return nil
}

// ListenAndServe binds addr on TCP and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections from ln until Shutdown or Close. It owns ln and
// closes it on the way out.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrDraining
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.draining || s.closed
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		c := &serverConn{srv: s, nc: nc}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.serve()
	}
}

// Shutdown drains the server: listeners close, no new requests are read,
// and every in-flight command finishes and flushes its response before the
// session closes. When ctx expires first the remaining sessions are torn
// down hard (Close).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for ln := range s.listeners {
		ln.Close()
	}
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	// Kick every reader out of its blocking ReadFrame; the drain flag makes
	// the reader hand its session to the executor for an orderly finish.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.Close()
		<-done
		return ctx.Err()
	}
}

// Close tears the server down hard: listeners and connections close
// immediately and any command still running is interrupted. In-flight
// responses may be lost; use Shutdown for a graceful drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	for ln := range s.listeners {
		ln.Close()
	}
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, c := range conns {
		c.interrupt()
		c.nc.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admit reserves a session slot, or explains the refusal. Refusals carry
// the server's retry-after hint so a policy-driven client backs off by the
// amount the operator chose instead of guessing.
func (s *Server) admit() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return 0, s.hinted(ErrDraining)
	}
	if s.active >= s.maxSessions {
		return 0, s.hinted(ErrServerFull)
	}
	s.active++
	s.nextSess++
	s.met.Counter(core.CtrRemoteSessions).Inc()
	s.met.Gauge(core.GaugeRemoteSessions).Add(1)
	return s.nextSess, nil
}

// hinted decorates a retryable refusal with the retry-after hint.
func (s *Server) hinted(err error) error {
	if s.retryAfter <= 0 {
		return err
	}
	return &core.RetryAfterError{After: s.retryAfter, Err: err}
}

func (s *Server) release(c *serverConn) {
	s.mu.Lock()
	s.active--
	delete(s.conns, c)
	s.mu.Unlock()
	s.met.Gauge(core.GaugeRemoteSessions).Add(-1)
}

func (s *Server) dropConn(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// session is the per-connection tracker state. Only the executor goroutine
// touches tr and the loaded flag; the reader goroutine uses intr (set once
// before the executor starts) for out-of-band interrupts.
type session struct {
	id     uint64
	kind   string
	tr     core.Tracker
	intr   core.Interrupter
	loaded bool
	stdout *deltaBuffer
	stderr *deltaBuffer

	// sub is the session's pause subscription (OpSubscribe): while set,
	// Resume loops server-side until a pause matches, so non-matching
	// pauses never cross the socket. Executor goroutine only.
	sub *query.Program
}

// serverConn is one client connection: a reader goroutine feeding an
// executor goroutine through cmds.
type serverConn struct {
	srv *Server
	nc  net.Conn

	wmu sync.Mutex // serializes response frames (reader + executor both write)

	imu  sync.Mutex // guards intr across reader/teardown
	intr core.Interrupter

	// inflight counts requests handed to the executor whose responses have
	// not been written yet; the idle-eviction deadline ignores busy sessions.
	inflight atomic.Int64

	// framesIn/framesOut count this connection's wire frames (/sessions).
	framesIn  atomic.Uint64
	framesOut atomic.Uint64

	// infoMu guards the mutable half of the session's /sessions row,
	// written by the executor and read by the HTTP handler. pause is the
	// last reported pause reason (set once info.Loaded is), formatted only
	// when the row is read.
	infoMu sync.Mutex
	info   SessionInfo
	pause  core.PauseReason
}

// command is one queued request plus the trace context its frame carried.
type command struct {
	req *Request
	tc  *TraceContext
}

// SessionInfo is one live session's operational snapshot, served by the
// -http /sessions endpoint.
type SessionInfo struct {
	ID     uint64 `json:"id"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant"` // client remote address
	Loaded bool   `json:"loaded"`
	Exited bool   `json:"exited,omitempty"`
	// Pause is the last reported pause reason ("breakpoint file.py:12").
	Pause     string `json:"pause,omitempty"`
	FramesIn  uint64 `json:"frames_in"`
	FramesOut uint64 `json:"frames_out"`
	Inflight  int64  `json:"inflight,omitempty"`
}

// SessionsInfo snapshots every live session for the operational endpoint,
// ordered by session id.
func (s *Server) SessionsInfo() []SessionInfo {
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	out := make([]SessionInfo, 0, len(conns))
	for _, c := range conns {
		c.infoMu.Lock()
		info := c.info
		if info.Loaded {
			info.Pause = c.pause.String()
		}
		c.infoMu.Unlock()
		if info.ID == 0 {
			continue // handshake not finished
		}
		info.FramesIn = c.framesIn.Load()
		info.FramesOut = c.framesOut.Load()
		info.Inflight = c.inflight.Load()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *serverConn) writeResp(r *Response) error {
	return c.writeRespCtx(r, nil)
}

// writeRespCtx writes one response frame, stamping tc (the responding
// executor span) into its header. The frame is counted before it is
// written, so a client that has read a response finds it in the counters;
// a frame whose write fails still counts, on a connection that is dead
// from then on.
func (c *serverConn) writeRespCtx(r *Response, tc *TraceContext) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.srv.met.Counter(core.CtrRemoteFramesOut).Inc()
	c.framesOut.Add(1)
	c.nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return WriteFrame(c.nc, r, tc)
}

// interrupt pokes the session's tracker so a command running in the
// executor returns; used by Close and by the reader when the client is gone.
func (c *serverConn) interrupt() {
	c.imu.Lock()
	intr := c.intr
	c.imu.Unlock()
	if intr != nil {
		intr.Interrupt()
	}
}

// serve is the reader goroutine: it performs the hello handshake, then
// forwards requests to the executor, handling OpInterrupt out of band.
func (c *serverConn) serve() {
	defer c.srv.wg.Done()
	sess, ok := c.handshake()
	if !ok {
		c.srv.dropConn(c)
		c.nc.Close()
		return
	}

	cmds := make(chan command, 16)
	c.srv.wg.Add(1)
	go c.execute(sess, cmds)

	// Two separate liveness clocks: lastFrame anchors the heartbeat window
	// (any frame proves the wire), lastReq anchors idle eviction (only real
	// requests prove the session is used — a client that merely pings is
	// keeping the socket warm, not working).
	var hbWindow time.Duration
	if c.srv.hbInterval > 0 {
		hbWindow = c.srv.hbInterval * time.Duration(c.srv.hbMisses)
	}
	lastFrame := time.Now()
	lastReq := lastFrame

	for {
		var dl time.Time
		if hbWindow > 0 {
			dl = lastFrame.Add(hbWindow)
		}
		if d := c.srv.idleTimeout; d > 0 {
			if t := lastReq.Add(d); dl.IsZero() || t.Before(dl) {
				dl = t
			}
		}
		if !dl.IsZero() {
			c.nc.SetReadDeadline(dl)
		}
		payload, err := ReadFrame(c.nc)
		if err != nil {
			var ne net.Error
			timeout := errors.As(err, &ne) && ne.Timeout()
			if timeout && !c.srv.isDraining() {
				now := time.Now()
				if hbWindow > 0 && now.Sub(lastFrame) >= hbWindow {
					// Total silence from a peer that promised to beat: the
					// wire is dead. This fires even mid-command — the
					// inflight guard below protects busy-but-connected
					// sessions, not vanished ones.
					c.srv.met.Counter(core.CtrRemoteHBEvicts).Inc()
					c.srv.logf("session %d: evicted after %d missed heartbeats (%v silent)",
						sess.id, c.srv.hbMisses, hbWindow)
				} else if c.srv.idleTimeout > 0 && now.Sub(lastReq) >= c.srv.idleTimeout {
					// A session mid-command is busy, not idle — the deadline
					// fires during a long Resume too. Re-arm and keep reading.
					if c.inflight.Load() > 0 {
						lastReq = now
						continue
					}
					c.srv.met.Counter(core.CtrRemoteEvictions).Inc()
					c.srv.logf("session %d: evicted after %v idle", sess.id, c.srv.idleTimeout)
				} else {
					// The other clock's deadline fired early; re-arm.
					continue
				}
			}
			// Drain: let queued commands finish and flush. Client gone or
			// eviction: interrupt anything running so the executor can
			// terminate the inferior promptly.
			if !(timeout && c.srv.isDraining()) {
				c.interrupt()
			}
			close(cmds)
			return
		}
		lastFrame = time.Now()
		c.srv.met.Counter(core.CtrRemoteFramesIn).Inc()
		c.framesIn.Add(1)
		tc, body, err := ParsePayload(payload)
		if err != nil {
			c.writeResp(&Response{Err: core.EncodeError(err)})
			c.interrupt()
			close(cmds)
			return
		}
		var req Request
		if err := json.Unmarshal(body, &req); err != nil {
			c.writeResp(&Response{Err: core.EncodeError(fmt.Errorf("remote: bad request frame: %w", err))})
			c.interrupt()
			close(cmds)
			return
		}
		switch req.Op {
		case OpPing:
			// Answered inline like OpInterrupt: a beat must not queue
			// behind a long-running command, and must not count as session
			// activity for idle eviction.
			c.writeResp(&Response{ID: req.ID})
			continue
		case OpInterrupt:
			// Out of band: Interrupter implementations only raise a sticky
			// flag, so this is safe while the executor runs a command. No
			// Status — only the executor may touch the tracker.
			var ej *core.ErrorJSON
			if sess.intr == nil {
				ej = core.EncodeError(core.WrapErr(sess.kind, "Interrupt", "", 0, core.ErrUnsupported))
			} else {
				sess.intr.Interrupt()
			}
			c.writeResp(&Response{ID: req.ID, Err: ej})
			lastReq = lastFrame
			continue
		}
		lastReq = lastFrame
		c.inflight.Add(1)
		cmds <- command{req: &req, tc: tc}
	}
}

// handshake reads the hello frame, runs admission and builds the session.
func (c *serverConn) handshake() (*session, bool) {
	c.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	payload, err := ReadFrame(c.nc)
	if err != nil {
		return nil, false
	}
	c.nc.SetReadDeadline(time.Time{})
	c.srv.met.Counter(core.CtrRemoteFramesIn).Inc()
	c.framesIn.Add(1)
	_, body, err := ParsePayload(payload)
	var req Request
	if err != nil || json.Unmarshal(body, &req) != nil || req.Op != OpHello {
		c.writeResp(&Response{ID: req.ID, Err: core.EncodeError(errors.New("remote: expected hello"))})
		return nil, false
	}
	id, err := c.srv.admit()
	if err != nil {
		c.srv.met.Counter(core.CtrRemoteRefusals).Inc()
		c.writeResp(&Response{ID: req.ID, Err: core.EncodeError(err)})
		return nil, false
	}
	tr, err := core.NewTracker(req.Kind)
	if err != nil {
		c.srv.release(c)
		c.writeResp(&Response{ID: req.ID, Err: core.EncodeError(err)})
		return nil, false
	}
	sess := &session{id: id, kind: req.Kind, tr: tr}
	if intr, ok := core.As[core.Interrupter](tr); ok {
		sess.intr = intr
		c.imu.Lock()
		c.intr = intr
		c.imu.Unlock()
	}
	caps := core.CapabilitiesOf(tr)
	resp := &Response{ID: req.ID, Session: id, Kind: req.Kind, Caps: &caps}
	if c.srv.hbInterval > 0 {
		resp.HBNs = int64(c.srv.hbInterval)
		resp.HBMiss = c.srv.hbMisses
	}
	c.srv.logf("session %d: admitted kind=%s", id, req.Kind)
	if err := c.writeResp(resp); err != nil {
		c.srv.release(c)
		return nil, false
	}
	c.infoMu.Lock()
	c.info = SessionInfo{ID: id, Kind: req.Kind, Tenant: c.nc.RemoteAddr().String()}
	c.infoMu.Unlock()
	return sess, true
}

// execute is the session's executor goroutine: the single driver of its
// tracker. It runs queued commands in order and flushes every response —
// including during a graceful drain — then terminates the inferior. Each
// command gets an executor span parented on the client span its frame
// carried, and that span is stamped as the backend tracer's ambient parent
// for the duration, so backend op spans (and their MI round trips) nest
// under the request that caused them.
func (c *serverConn) execute(sess *session, cmds <-chan command) {
	defer c.srv.wg.Done()
	for cmd := range cmds {
		req := cmd.req
		var parent obs.SpanContext
		if cmd.tc != nil {
			parent = obs.SpanContext{TraceID: cmd.tc.TraceID, SpanID: cmd.tc.SpanID}
		}
		sp := c.srv.tracer.StartChild(core.SpanRPCPrefix+req.Op, parent)
		var bt *obs.Tracer
		if src, ok := core.As[core.SpanTracerSource](sess.tr); ok {
			bt = src.SpanTracer()
		}
		bt.SetParent(sp.Context())
		t0 := c.srv.met.Now()
		resp := c.exec(sess, req)
		c.srv.met.Observe(core.OpRemoteRound, t0)
		bt.SetParent(obs.SpanContext{})
		sp.End()
		spCtx := sp.Context()
		if err := c.writeRespCtx(resp, &TraceContext{TraceID: spCtx.TraceID, SpanID: spCtx.SpanID}); err != nil {
			// Client is gone; keep draining so Terminate below runs.
			c.srv.logf("session %d: dropping response: %v", sess.id, err)
		}
		c.inflight.Add(-1)
	}
	if sess.loaded {
		sess.tr.Terminate()
	}
	c.srv.logf("session %d: closed", sess.id)
	c.srv.release(c)
	c.nc.Close()
}

// exec runs one request against the session tracker.
func (c *serverConn) exec(sess *session, req *Request) *Response {
	resp := &Response{ID: req.ID}
	var err error
	switch req.Op {
	case OpLoad:
		err = c.load(sess, req)
		if err == nil {
			// Some capabilities are load-dependent (TimeTravel follows
			// WithRecording), so the hello-time set is re-probed now and the
			// refreshed set rides back on the load response.
			caps := core.CapabilitiesOf(sess.tr)
			resp.Caps = &caps
		}
	case OpStart:
		err = sess.tr.Start()
	case OpResume:
		if sess.sub != nil {
			err = c.resumeFiltered(sess)
		} else {
			err = sess.tr.Resume()
		}
	case OpStep:
		err = sess.tr.Step()
	case OpNext:
		err = sess.tr.Next()
	case OpTerminate:
		err = sess.tr.Terminate()
	case OpBreakLine, OpBreakFunc, OpTrack, OpWatch:
		err = sess.tr.Arm(req.probe())
	case OpSubscribe:
		err = c.subscribe(sess, req)
	case OpStepBack:
		if tt, ok := core.As[core.TimeTraveler](sess.tr); ok {
			err = tt.StepBack()
		} else {
			err = core.WrapErr(sess.kind, "StepBack", "", 0, core.ErrUnsupported)
		}
	case OpResumeBack:
		if tt, ok := core.As[core.TimeTraveler](sess.tr); ok {
			err = tt.ResumeBack()
		} else {
			err = core.WrapErr(sess.kind, "ResumeBack", "", 0, core.ErrUnsupported)
		}
	case OpNextBack:
		if tt, ok := core.As[core.TimeTraveler](sess.tr); ok {
			err = tt.NextBack()
		} else {
			err = core.WrapErr(sess.kind, "NextBack", "", 0, core.ErrUnsupported)
		}
	case OpSeek:
		if tt, ok := core.As[core.TimeTraveler](sess.tr); ok {
			err = tt.SeekTo(req.Step)
		} else {
			err = core.WrapErr(sess.kind, "SeekTo", "", 0, core.ErrUnsupported)
		}
	case OpLastChange:
		if rw, ok := core.As[core.ReverseWatcher](sess.tr); ok {
			resp.Change, err = rw.LastChange(req.Var)
		} else {
			err = core.WrapErr(sess.kind, "LastChange", "", 0, core.ErrUnsupported)
		}
	case OpState:
		var st *core.State
		if sp, ok := core.As[core.StateProvider](sess.tr); ok {
			st, err = sp.State()
		} else {
			err = core.WrapErr(sess.kind, "State", "", 0, core.ErrUnsupported)
		}
		if err == nil {
			resp.State, err = st.MarshalJSON()
		}
	case OpSource:
		resp.Lines, err = sess.tr.SourceLines()
	case OpStats:
		if sp, ok := core.As[core.StatsProvider](sess.tr); ok {
			resp.Stats, err = json.Marshal(sp.Stats())
		} else {
			err = core.WrapErr(sess.kind, "Stats", "", 0, core.ErrUnsupported)
		}
	case OpRegs:
		if ri, ok := core.As[core.RegisterInspector](sess.tr); ok {
			resp.Regs, err = ri.Registers()
		} else {
			err = core.WrapErr(sess.kind, "Registers", "", 0, core.ErrUnsupported)
		}
	case OpReadMem:
		if mi, ok := core.As[core.MemoryInspector](sess.tr); ok {
			resp.Mem, err = mi.ValueAt(req.Addr, req.Size)
		} else {
			err = core.WrapErr(sess.kind, "ValueAt", "", 0, core.ErrUnsupported)
		}
	case OpSegments:
		if mi, ok := core.As[core.MemoryInspector](sess.tr); ok {
			resp.Segs = mi.MemorySegments()
		} else {
			err = core.WrapErr(sess.kind, "MemorySegments", "", 0, core.ErrUnsupported)
		}
	case OpHeap:
		if hi, ok := core.As[core.HeapInspector](sess.tr); ok {
			var blocks map[uint64]uint64
			blocks, err = hi.HeapBlocks()
			if err == nil {
				resp.Heap = make(map[string]uint64, len(blocks))
				for a, sz := range blocks {
					resp.Heap[strconv.FormatUint(a, 10)] = sz
				}
			}
		} else {
			err = core.WrapErr(sess.kind, "HeapBlocks", "", 0, core.ErrUnsupported)
		}
	default:
		err = fmt.Errorf("remote: unknown op %q", req.Op)
	}
	resp.Err = core.EncodeError(err)
	if sess.loaded {
		resp.Status = c.status(sess)
		if err == nil && req.WantState {
			resp.State = pushedState(sess)
		}
	}
	return resp
}

// pushedState answers WantState: the codec bytes of the State at the pause
// the op reached, or nil when the backend has no State or fails to produce
// it — the client's next State() then asks with OpState and gets the error
// there.
func pushedState(sess *session) []byte {
	sp, ok := core.As[core.StateProvider](sess.tr)
	if !ok {
		return nil
	}
	st, err := sp.State()
	if err != nil {
		return nil
	}
	raw, err := st.MarshalJSON()
	if err != nil {
		return nil
	}
	return raw
}

// load runs OpLoad: it builds the effective load options with the server's
// tenant caps folded in.
func (c *serverConn) load(sess *session, req *Request) error {
	if sess.loaded {
		return fmt.Errorf("remote: session already has a program loaded")
	}
	spec := req.Load
	if spec == nil {
		spec = &LoadSpec{}
	}
	if spec.WantStdout {
		sess.stdout = &deltaBuffer{}
	}
	if spec.WantStderr {
		sess.stderr = &deltaBuffer{}
	}
	opts := spec.loadOptions(c.srv.caps, sess.stdout, sess.stderr, spec.Stdin)
	// Every backend publishes its spans into the server's shared ring, so
	// the /spans dump covers all sessions without per-session plumbing.
	opts = append(opts, core.WithSpanSink(c.srv.tracer.Ring()))
	if err := sess.tr.LoadProgram(req.Path, opts...); err != nil {
		sess.stdout, sess.stderr = nil, nil
		return err
	}
	sess.loaded = true
	return nil
}

// status snapshots the tracker's observable condition for the response and
// refreshes the connection's /sessions row from it. Executor goroutine
// only.
func (c *serverConn) status(sess *session) *Status {
	st := &Status{}
	r := sess.tr.PauseReason()
	if raw, err := core.EncodePauseReasonJSON(r); err == nil {
		st.Reason = raw
	}
	st.ExitCode, st.Exited = sess.tr.ExitCode()
	st.File, st.Line = sess.tr.Position()
	st.LastLine = sess.tr.LastLine()
	st.Stdout = sess.stdout.take()
	st.Stderr = sess.stderr.take()
	if tt, ok := core.As[core.TimeTraveler](sess.tr); ok {
		if l := tt.Len(); l > 0 {
			st.TTPos = tt.Pos() + 1 // +1: keep position 0 visible through omitempty
			st.TTLen = l
		}
	}
	c.infoMu.Lock()
	c.info.Loaded, c.info.Exited, c.pause = true, st.Exited, r
	c.infoMu.Unlock()
	return st
}

// subscribe installs (or, with an empty expression, clears) the session's
// pause subscription. The expression compiles once here; evaluation needs
// the backend's state snapshots, so a backend without StateProvider cannot
// host subscriptions.
func (c *serverConn) subscribe(sess *session, req *Request) error {
	if req.Cond == "" {
		sess.sub = nil
		return nil
	}
	if _, ok := core.As[core.StateProvider](sess.tr); !ok {
		return core.WrapErr(sess.kind, "Subscribe", "", 0, core.ErrUnsupported)
	}
	prog, err := query.Compile(req.Cond)
	if err != nil {
		return err
	}
	sess.sub = prog
	return nil
}

// resumeFiltered is Resume under an active subscription: keep resuming
// until a pause matches the expression, the inferior exits, or the
// supervision layer interrupts (interrupts, deadlines and budgets always
// surface — swallowing them server-side would defeat supervision).
// Filtered pauses are counted but never serialized to the client.
func (c *serverConn) resumeFiltered(sess *session) error {
	for {
		if err := sess.tr.Resume(); err != nil {
			return err
		}
		if _, exited := sess.tr.ExitCode(); exited {
			return nil
		}
		r := sess.tr.PauseReason()
		if r.Type == core.PauseInterrupted {
			return nil
		}
		if c.subMatch(sess, r) {
			return nil
		}
		c.srv.met.Counter(core.CtrRemoteFiltered).Inc()
	}
}

// subMatch evaluates the subscription against the current pause. A pause
// the server cannot evaluate (snapshot failure) surfaces rather than being
// silently dropped.
func (c *serverConn) subMatch(sess *session, r core.PauseReason) bool {
	sp, ok := core.As[core.StateProvider](sess.tr)
	if !ok {
		return true
	}
	st, err := sp.State()
	if err != nil || st == nil {
		return true
	}
	file, line := sess.tr.Position()
	fn := r.Function
	if fn == "" && st.Frame != nil {
		fn = st.Frame.Name
	}
	v := query.StateView{
		EventName: pauseEvent(r.Type),
		LineNo:    line,
		FileName:  file,
		FuncName:  fn,
		State:     st,
	}
	return sess.sub.Match(&v)
}

// pauseEvent maps a pause reason onto the query event vocabulary.
func pauseEvent(t core.PauseReasonType) string {
	switch t {
	case core.PauseCall:
		return query.EventCall
	case core.PauseReturn:
		return query.EventReturn
	default:
		return query.EventLine
	}
}

// deltaBuffer accumulates inferior output between responses; take drains
// it. The inferior goroutine writes while the executor drains, so it locks.
type deltaBuffer struct {
	mu sync.Mutex
	b  []byte
}

// Write implements io.Writer.
func (d *deltaBuffer) Write(p []byte) (int, error) {
	d.mu.Lock()
	d.b = append(d.b, p...)
	d.mu.Unlock()
	return len(p), nil
}

// take returns and clears the accumulated output. Safe on a nil receiver.
func (d *deltaBuffer) take() string {
	if d == nil {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.b) == 0 {
		return ""
	}
	s := string(d.b)
	d.b = d.b[:0]
	return s
}
