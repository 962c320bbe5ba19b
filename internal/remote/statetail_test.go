package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// responses splits the recorded stream into response frames. It returns
// each frame's JSON body and State tail (nil when the frame had none).
func (c *tapConn) responses(t *testing.T) (bodies, tails [][]byte) {
	t.Helper()
	c.mu.Lock()
	r := bytes.NewReader(c.rx.Bytes())
	c.mu.Unlock()
	for {
		_, payload, err := readFrame(r)
		if err == io.EOF {
			return bodies, tails
		}
		if err != nil {
			t.Fatalf("recorded stream: %v", err)
		}
		_, body, tail, err := cutPayload(payload)
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
	bodies, tails := tap.responses(t)
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
	bodies, tails = tap.responses(t)
	for i := range bodies {
		if tails[i] != nil || bytes.Contains(bodies[i], []byte(`"state"`)) {
			t.Fatalf("a session that never inspects received State bytes in frame %d", i)
		}
	}
}

// stubDoc is the State a stub server serves.
const stubDoc = `{"frames":[{"name":"<module>","line":2}]}`

// serveStub accepts one client connection for a stub server that pauses
// every session at line 2. answer fills in each response after the hello;
// mangle, when set, may alter a response's frame bytes, the hello reply's
// included, before they are written. The channel yields the stub's first
// error, or nil once the client hangs up.
func serveStub(t *testing.T, answer func(req *Request, resp *Response),
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
		for {
			_, payload, err := readFrame(nc)
			if err != nil {
				errc <- nil // the client hung up
				return
			}
			_, body, err := ParsePayload(payload)
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
				resp.Session, resp.Kind = 1, req.Kind
				resp.Caps = &core.CapabilitySet{State: true}
			} else {
				resp.Status = &Status{Line: 2}
				answer(&req, resp)
			}
			var buf bytes.Buffer
			if err := writeFrame(&buf, resp, nil); err != nil {
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
		}
	}()
	return ln.Addr().String(), errc
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
	if err := writeFrame(nc, &Request{ID: 1, Op: OpHello, Kind: "minipy"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(nc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Request{ID: 2, Op: OpLoad, Path: "count.py",
		Load: &LoadSpec{Source: countPy}}, nil); err != nil {
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
		_, payload, err := readFrame(nc)
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
	addr, done := serveStub(t, func(req *Request, resp *Response) {
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

// ownedPy changes its State at every line, so a State decoded from a frame
// buffer that another frame has since reused cannot pass for the right one.
const ownedPy = `def grow(xs, k):
    xs.append("v" + str(k * k))
    return len(xs)

xs = []
d = {}
k = 0
while k < 12:
    n = grow(xs, k)
    d[str(k)] = [k, n, "<" + str(k) + ">"]
    k = k + 1
print(len(d), xs[-1])
`

// TestStateTailBufferOwnership runs loopback sessions side by side on one
// server, each reading the State at some pauses and not at others, so some
// tails are decoded and some dropped unread while the other sessions' frames
// churn the buffer pool. A State tail aliases its frame buffer until it is
// decoded, and a Status's pause reason until applyStatus reads it: every
// State and pause reason a session reads must be the local session's at the
// same pause.
func TestStateTailBufferOwnership(t *testing.T) {
	local, err := core.NewTracker("minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer local.Terminate()
	if err := local.LoadProgram("owned.py", core.WithSource(ownedPy)); err != nil {
		t.Fatal(err)
	}
	if err := local.Start(); err != nil {
		t.Fatal(err)
	}
	var wantStates, wantReasons []string
	for {
		if _, done := local.ExitCode(); done {
			break
		}
		st, err := local.(core.StateProvider).State()
		if err != nil {
			t.Fatal(err)
		}
		js, err := st.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		wantStates = append(wantStates, string(js))
		wantReasons = append(wantReasons, local.PauseReason().String())
		if err := local.Step(); err != nil {
			t.Fatal(err)
		}
	}

	_, addr := startServer(t)
	const sessions, rounds = 8, 3
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := ownedSession(addr, s+round, wantStates, wantReasons); err != nil {
					t.Errorf("session %d, round %d: %v", s, round, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

// ownedSession steps ownedPy to its exit, reading the State at pause i
// unless (i+seed)%3 is 0, and checks each State and pause reason it reads.
func ownedSession(addr string, seed int, wantStates, wantReasons []string) error {
	tr, err := Connect(addr, "minipy")
	if err != nil {
		return err
	}
	defer tr.Close()
	if err := tr.LoadProgram("owned.py", core.WithSource(ownedPy)); err != nil {
		return err
	}
	if err := tr.Start(); err != nil {
		return err
	}
	for i := 0; ; i++ {
		if _, done := tr.ExitCode(); done {
			if i != len(wantStates) {
				return fmt.Errorf("exited after %d pauses, want %d", i, len(wantStates))
			}
			return nil
		}
		if i == len(wantStates) {
			return fmt.Errorf("still running after %d pauses", i)
		}
		if got := tr.PauseReason().String(); got != wantReasons[i] {
			return fmt.Errorf("pause %d: reason %q, want %q", i, got, wantReasons[i])
		}
		if (i+seed)%3 != 0 {
			st, err := tr.State()
			if err != nil {
				return fmt.Errorf("pause %d: %w", i, err)
			}
			js, err := st.MarshalJSON()
			if err != nil {
				return err
			}
			if string(js) != wantStates[i] {
				return fmt.Errorf("pause %d: State\n%s\nwant\n%s", i, js, wantStates[i])
			}
		}
		if err := tr.Step(); err != nil {
			return fmt.Errorf("pause %d: %w", i, err)
		}
	}
}
