package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"easytracker/internal/core"
)

// tapConn records every byte the client reads, so a test can split the
// server's frames back out.
type tapConn struct {
	net.Conn
	mu sync.Mutex
	rx bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.rx.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// responses splits the recorded stream into response frames: the hello
// reply at v0, the rest at tracev. It returns each frame's JSON body and
// State tail (nil when the frame had none).
func (c *tapConn) responses(t *testing.T, tracev int) (bodies, tails [][]byte) {
	t.Helper()
	c.mu.Lock()
	r := bytes.NewReader(c.rx.Bytes())
	c.mu.Unlock()
	for v := 0; ; v = tracev {
		payload, err := ReadFrame(r)
		if err == io.EOF {
			return bodies, tails
		}
		if err != nil {
			t.Fatalf("recorded stream: %v", err)
		}
		_, body, tail, err := splitPayload(payload, v)
		if err != nil {
			t.Fatalf("recorded frame: %v", err)
		}
		bodies, tails = append(bodies, body), append(tails, tail)
	}
}

// connectTapped opens a minipy session with countPy loaded over a recorded
// connection.
func connectTapped(t *testing.T, addr string) (*Tracker, *tapConn) {
	t.Helper()
	var tap *tapConn
	tr, err := Connect(addr, "minipy", WithDialer(func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		tap = &tapConn{Conn: nc}
		return tap, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if err := tr.LoadProgram("count.py", core.WithSource(countPy)); err != nil {
		t.Fatal(err)
	}
	return tr, tap
}

// TestStateRidesControlResponse is the tutor loop of the paper's Listing 1
// (State, then Step, to the exit) over loopback: after the first State,
// every interaction costs exactly one request frame, and every State but
// the first arrives in a control response's v2 tail. A session that never
// inspects receives no State bytes at all.
func TestStateRidesControlResponse(t *testing.T) {
	srv, addr := startServer(t)
	framesIn := func() uint64 { return srv.Stats().Counters[core.CtrRemoteFramesIn] }

	tr, tap := connectTapped(t, addr)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		if _, done := tr.ExitCode(); done {
			break
		}
		before := framesIn()
		if _, err := tr.State(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		if got := framesIn() - before; steps > 0 && got != 1 {
			t.Fatalf("interaction %d cost %d request frames, want 1", steps, got)
		}
		steps++
	}
	if steps < 10 {
		t.Fatalf("only %d interactions; the program should pause at every line", steps)
	}
	bodies, tails := tap.responses(t, FrameVersion)
	pushed := 0
	for i, tail := range tails {
		if bytes.Contains(bodies[i], []byte(`"state"`)) {
			t.Fatalf("frame %d carries its State inside the JSON at v2: %s", i, bodies[i])
		}
		if tail != nil {
			pushed++
		}
	}
	// Every State crosses in a tail: the first one over OpState, then one
	// on each Step, the last Step's included.
	if pushed != steps+1 {
		t.Fatalf("%d frames carried a State tail, want %d", pushed, steps+1)
	}

	// Resume-only: no State request and no State bytes.
	blind, tap := connectTapped(t, addr)
	if err := blind.Start(); err != nil {
		t.Fatal(err)
	}
	if err := blind.Watch("::total"); err != nil {
		t.Fatal(err)
	}
	for {
		if _, done := blind.ExitCode(); done {
			break
		}
		if err := blind.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	bodies, tails = tap.responses(t, FrameVersion)
	for i := range bodies {
		if tails[i] != nil || bytes.Contains(bodies[i], []byte(`"state"`)) {
			t.Fatalf("a session that never inspects received State bytes in frame %d", i)
		}
	}
}

// TestStateV1ClientNewServer speaks framing v1 by hand at the current
// server: a control op that sets want_state gets its State inside the JSON,
// with no tail flag and no checksum.
func TestStateV1ClientNewServer(t *testing.T) {
	_, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	tracev := 0
	call := func(req *Request) (*Response, []byte) {
		t.Helper()
		if err := WriteFrameV(nc, req, tracev, nil); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		_, body, err := ParsePayload(payload, tracev)
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("v%d response is not flags plus JSON: %v", tracev, err)
		}
		if resp.Err != nil {
			t.Fatalf("%s: %v", req.Op, resp.Err.DecodeError())
		}
		return &resp, payload
	}

	hello, _ := call(&Request{ID: 1, Op: OpHello, Kind: "minipy", TraceV: 1})
	if hello.TraceV != 1 {
		t.Fatalf("negotiated tracev = %d against a v1 client, want 1", hello.TraceV)
	}
	tracev = 1
	call(&Request{ID: 2, Op: OpLoad, Path: "count.py", Load: &LoadSpec{Source: countPy}})
	call(&Request{ID: 3, Op: OpStart})
	step, payload := call(&Request{ID: 4, Op: OpStep, WantState: true})
	if payload[0]&flagStateTail != 0 || payload[len(payload)-1] != '}' {
		t.Fatalf("v1 response has a tail flag or a trailer: flags %#x, last byte %q",
			payload[0], payload[len(payload)-1])
	}
	var pushed core.State
	if err := pushed.UnmarshalJSON(step.State); err != nil {
		t.Fatalf("want_state at v1: State inside the JSON does not decode: %v", err)
	}
	got, _ := call(&Request{ID: 5, Op: OpState})
	if string(got.State) != string(step.State) {
		t.Fatalf("pushed State differs from OpState's:\n got: %s\nwant: %s", step.State, got.State)
	}
}

// stubDoc is the State a stub server serves.
const stubDoc = `{"frames":[{"name":"<module>","line":2}]}`

// serveStub accepts one client connection for a stub server that
// negotiates framing tracev and pauses every session at line 2. answer fills
// in each response after the hello; mangle, when set, may alter a
// response's frame bytes before they are written. The channel yields the
// stub's first error, or nil once the client hangs up.
func serveStub(t *testing.T, tracev int, answer func(req *Request, resp *Response),
	mangle func(req *Request, frame []byte)) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		ln.Close() // one connection: a redial is refused
		if err != nil {
			errc <- err
			return
		}
		defer nc.Close()
		v := 0 // the hello crosses at v0
		for {
			payload, err := ReadFrame(nc)
			if err != nil {
				errc <- nil // the client hung up
				return
			}
			_, body, err := ParsePayload(payload, v)
			var req Request
			if err == nil {
				err = json.Unmarshal(body, &req)
			}
			if err != nil {
				errc <- err
				return
			}
			resp := &Response{ID: req.ID}
			if req.Op == OpHello {
				resp.Session, resp.Kind, resp.TraceV = 1, req.Kind, tracev
				resp.Caps = &core.CapabilitySet{State: true}
			} else {
				resp.Status = &Status{Line: 2}
				answer(&req, resp)
			}
			var buf bytes.Buffer
			if err := WriteFrameV(&buf, resp, v, nil); err != nil {
				errc <- err
				return
			}
			if mangle != nil {
				mangle(&req, buf.Bytes())
			}
			if _, err := nc.Write(buf.Bytes()); err != nil {
				errc <- err
				return
			}
			if req.Op == OpHello {
				v = tracev
			}
		}
	}()
	return ln.Addr().String(), errc
}

// TestStateNewClientOldServer runs the current client against stub servers
// that speak framing v0 and v1 and have never heard of want_state: every
// State still arrives, each over its own OpState round trip.
func TestStateNewClientOldServer(t *testing.T) {
	for _, tracev := range []int{0, 1} {
		var stateOps, wantStates int
		addr, done := serveStub(t, tracev, func(req *Request, resp *Response) {
			if req.Op == OpState {
				stateOps++
				resp.State = json.RawMessage(stubDoc)
			}
			if req.WantState {
				wantStates++
			}
		}, nil)
		tr, err := Connect(addr, "minipy")
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.LoadProgram("count.py", core.WithSource(countPy)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		const reads = 4
		for i := 0; i < reads; i++ {
			st, err := tr.State()
			if err != nil {
				t.Fatalf("v%d server: State %d: %v", tracev, i, err)
			}
			if st.Frame == nil || st.Frame.Line != 2 {
				t.Fatalf("v%d server: State %d decoded wrong: %+v", tracev, i, st)
			}
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		tr.Close()
		if err := <-done; err != nil {
			t.Fatalf("v%d server failed to decode client frames: %v", tracev, err)
		}
		if stateOps != reads || wantStates != reads {
			t.Fatalf("v%d server: %d OpState requests and %d want_state steps, want %d each",
				tracev, stateOps, wantStates, reads)
		}
	}
}

// TestChecksumDropsFlippedRequest flips one bit inside the op string of a
// v2 request. The JSON still parses, as "moad"; without the checksum the
// server would answer `unknown op`. It must drop the connection instead.
func TestChecksumDropsFlippedRequest(t *testing.T) {
	srv, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := WriteFrame(nc, &Request{ID: 1, Op: OpHello, Kind: "minipy", TraceV: FrameVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(nc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrameV(&buf, &Request{ID: 2, Op: OpLoad, Path: "count.py",
		Load: &LoadSpec{Source: countPy}}, FrameVersion, nil); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	i := bytes.Index(frame, []byte(`"op":"load"`))
	if i < 0 {
		t.Fatalf("op string not found in %q", frame)
	}
	frame[i+len(`"op":"`)] ^= 0x01 // 'l' -> 'm'
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		payload, err := ReadFrame(nc)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("server kept the connection open after a corrupted request")
			}
			break // dropped
		}
		if strings.Contains(string(payload), "unknown op") {
			t.Fatalf("server answered the corrupted request: %s", payload)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session outlived its corrupted connection (sessions=%d)", srv.SessionCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChecksumDropsFlippedStateTail serves a v2 State whose tail has one
// bit flipped. The client must drop the connection — the caller sees the
// session lost with ErrChecksum as its cause, never a State decode error.
func TestChecksumDropsFlippedStateTail(t *testing.T) {
	addr, done := serveStub(t, FrameVersion, func(req *Request, resp *Response) {
		if req.Op == OpState {
			resp.State = json.RawMessage(stubDoc)
		}
	}, func(req *Request, frame []byte) {
		if req.Op == OpState {
			// "line":2 -> "line":3 inside the tail: still a valid State.
			i := bytes.LastIndex(frame, []byte(`"line":2`))
			frame[i+len(`"line":`)] ^= 0x01
		}
	})
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	pol := core.RedialPolicy{MaxAttempts: 1, Budget: time.Second, MaxRecoveries: 1, DialTimeout: time.Second}
	if err := tr.LoadProgram("count.py", core.WithSource(countPy), core.WithRedialPolicy(pol)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := tr.State()
	if err == nil {
		t.Fatalf("a State with a flipped bit was accepted: %+v", st.Frame)
	}
	if !errors.Is(err, core.ErrSessionLost) || !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped State tail: err = %v, want the session lost to ErrChecksum", err)
	}
	if strings.Contains(err.Error(), "decoding state") {
		t.Fatalf("the caller got a decode failure: %v", err)
	}
	tr.Close()
	if err := <-done; err != nil {
		t.Fatalf("stub server: %v", err)
	}
}
