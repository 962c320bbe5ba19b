package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"easytracker/internal/core"
)

// flipConn flips one bit of payload byte at in the frame-th frame written
// through it, counting the hello as 0, and stores that frame's payload
// length in n.
type flipConn struct {
	net.Conn
	frame int
	at    int
	n     *int
	wrote int
}

func (c *flipConn) Write(p []byte) (int, error) {
	c.wrote++
	if c.wrote-1 != c.frame {
		return c.Conn.Write(p)
	}
	*c.n = len(p) - 4
	q := append([]byte(nil), p...)
	if 4+c.at < len(q) {
		q[4+c.at] ^= 1 << (c.at % 8)
	}
	return c.Conn.Write(q)
}

// assertNoHelloAnswer fails the test if any frame the tapped connection
// read answers a hello: carries a session id or a capability set.
func assertNoHelloAnswer(t *testing.T, tap *tapConn) {
	t.Helper()
	bodies, _ := tap.responses(t)
	for _, body := range bodies {
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("server frame: %v", err)
		}
		if resp.Session != 0 || resp.Caps != nil {
			t.Fatalf("server answered a corrupted hello: %s", body)
		}
	}
}

// assertNoSession fails the test if srv ever admitted a session.
func assertNoSession(t *testing.T, srv *Server) {
	t.Helper()
	if n := srv.Stats().Counters[core.CtrRemoteSessions]; n != 0 || srv.SessionCount() != 0 {
		t.Fatalf("server admitted %d sessions from corrupted hellos", n)
	}
}

// TestHelloBitFlipsRefused flips one bit in each byte of the client's hello
// payload in turn. The checksum must catch every flip: the dial fails with
// the session lost and the server's diagnosis, the server admits no
// session, and nothing it sends answers the hello. A hello without a
// checksum let a flip that still parses open a session on other terms, or
// come back as an ordinary error.
func TestHelloBitFlipsRefused(t *testing.T) {
	srv, addr := startServer(t)
	n := -1 // the hello's payload length, learned on the first dial
	for i := 0; n < 0 || i < n; i++ {
		var tap *tapConn
		_, err := Connect(addr, "minipy", WithDialTimeout(5*time.Second),
			WithDialer(func(addr string) (net.Conn, error) {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				tap = &tapConn{Conn: &flipConn{Conn: nc, at: i, n: &n}}
				return tap, nil
			}))
		if !errors.Is(err, core.ErrSessionLost) || !strings.Contains(err.Error(), "expected hello") {
			t.Fatalf("hello with byte %d flipped: err = %v, want the session lost to the server's \"expected hello\"", i, err)
		}
		assertNoHelloAnswer(t, tap)
	}
	assertNoSession(t, srv)
}

// TestRequestBitFlipReportsChecksum flips one bit in the LoadProgram
// request, the frame after the hello. The server cannot read the request,
// so it answers with ID 0 and closes. The caller must get the session lost
// with the server's checksum diagnosis, not an unsolicited response.
func TestRequestBitFlipReportsChecksum(t *testing.T) {
	_, addr := startServer(t)
	var n int
	tr, err := Connect(addr, "minipy", WithDialTimeout(5*time.Second),
		WithDialer(func(addr string) (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &flipConn{Conn: nc, frame: 1, at: 10, n: &n}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	err = tr.LoadProgram("count.py", core.WithSource(countPy))
	if !errors.Is(err, core.ErrSessionLost) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("LoadProgram with a flipped bit: err = %v, want the session lost to the server's checksum mismatch", err)
	}
	if n == 0 {
		t.Fatal("no request frame was flipped")
	}
}

// TestHelloBareJSONRefused sends the hello as a bare JSON payload with no
// framing around it. The server must refuse it as it refuses a corrupted
// hello: end the connection without admitting a session or answering it.
func TestHelloBareJSONRefused(t *testing.T) {
	srv, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	tap := &tapConn{Conn: nc}
	body := []byte(`{"id":1,"op":"hello","kind":"minipy"}`)
	if _, err := nc.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, tap); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server kept the connection open after a bare-JSON hello")
		}
	}
	assertNoHelloAnswer(t, tap)
	assertNoSession(t, srv)
}

// TestChecksumDropsFlippedHelloReply serves a hello reply with one bit
// flipped, in a place that leaves it a valid reply. The client must drop
// the connection: Connect fails with the session lost to ErrChecksum.
func TestChecksumDropsFlippedHelloReply(t *testing.T) {
	addr, done := serveStub(t, func(*Request, *Response) {}, func(req *Request, frame []byte) {
		if req.Op == OpHello {
			// "kind":"minipy" -> "kind":"minipx".
			i := bytes.Index(frame, []byte(`"minipy"`))
			frame[i+len(`"minip`)] ^= 0x01
		}
	})
	tr, err := Connect(addr, "minipy", WithDialTimeout(5*time.Second))
	if err == nil {
		tr.Close()
		t.Fatal("a hello reply with a flipped bit was accepted")
	}
	if !errors.Is(err, core.ErrSessionLost) || !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped hello reply: err = %v, want the session lost to ErrChecksum", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("stub server: %v", err)
	}
}

// TestHelloBareJSONReplyRefused answers the client's hello as a server of
// the retired bare-JSON framing did: no flags byte and no checksum.
// Connect must fail with the session lost to ErrChecksum rather than read
// the reply as a hello.
func TestHelloBareJSONReplyRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer nc.Close()
		_, payload, err := readFrame(nc)
		if err != nil {
			errc <- err
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
		reply, err := json.Marshal(&Response{ID: req.ID, Session: 1, Kind: req.Kind,
			Caps: &core.CapabilitySet{State: true}})
		if err == nil {
			_, err = nc.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(reply))), reply...))
		}
		errc <- err
	}()
	tr, err := Connect(ln.Addr().String(), "minipy", WithDialTimeout(5*time.Second))
	if err == nil {
		tr.Close()
		t.Fatal("a bare-JSON hello reply was accepted")
	}
	if !errors.Is(err, core.ErrSessionLost) || !errors.Is(err, ErrChecksum) {
		t.Fatalf("bare-JSON hello reply: err = %v, want the session lost to ErrChecksum", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("stub server: %v", err)
	}
}

// TestHelloReplyGrantsHeartbeat sends a hello by hand and reads the
// checksummed reply: the session, its kind, its capabilities and the
// heartbeat contract. A hello has no way to opt out of heartbeats, so a
// server built WithHeartbeat grants them to every session; one built
// without grants none.
func TestHelloReplyGrantsHeartbeat(t *testing.T) {
	cases := []struct {
		name     string
		interval time.Duration
		misses   int
	}{
		{"heartbeats off", 0, 0},
		{"WithHeartbeat", 20 * time.Millisecond, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var opts []ServerOption
			if c.interval > 0 {
				opts = append(opts, WithHeartbeat(c.interval, c.misses))
			}
			_, addr := startServer(t, opts...)
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if err := writeFrame(nc, &Request{ID: 1, Op: OpHello, Kind: "minipy"}, nil); err != nil {
				t.Fatal(err)
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, payload, err := readFrame(nc)
			if err != nil {
				t.Fatal(err)
			}
			_, body, err := ParsePayload(payload)
			if err != nil {
				t.Fatalf("hello reply: %v", err)
			}
			var resp Response
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Err != nil {
				t.Fatalf("hello: %v", resp.Err.DecodeError())
			}
			if resp.ID != 1 || resp.Session == 0 || resp.Kind != "minipy" || resp.Caps == nil {
				t.Fatalf("hello reply lacks its session, kind or capabilities: %s", body)
			}
			if resp.HBNs != int64(c.interval) || resp.HBMiss != c.misses {
				t.Fatalf("heartbeat grant = %v x %d, want %v x %d",
					time.Duration(resp.HBNs), resp.HBMiss, c.interval, c.misses)
			}
			if bytes.Contains(body, []byte(`"max_frame"`)) {
				t.Fatalf("hello reply carries max_frame: %s", body)
			}
		})
	}
}
