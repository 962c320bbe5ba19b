package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/obs"
)

func TestWriteFrameVRoundTrip(t *testing.T) {
	req := &Request{ID: 7, Op: OpResume}

	t.Run("v0 passthrough", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteFrameV(&buf, req, 0, &TraceContext{TraceID: 1, SpanID: 2}); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// v0 never carries the context, even when one is offered.
		tc, body, err := ParsePayload(payload, 0)
		if err != nil || tc != nil {
			t.Fatalf("v0 parse: tc=%v err=%v", tc, err)
		}
		var got Request
		if err := json.Unmarshal(body, &got); err != nil || got.ID != 7 {
			t.Fatalf("v0 body: %v %+v", err, got)
		}
	})

	t.Run("v1 with context", func(t *testing.T) {
		want := &TraceContext{TraceID: 0xdeadbeefcafe, SpanID: 0x1234}
		var buf bytes.Buffer
		if err := WriteFrameV(&buf, req, 1, want); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		tc, body, err := ParsePayload(payload, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tc == nil || *tc != *want {
			t.Fatalf("context drifted: %+v", tc)
		}
		var got Request
		if err := json.Unmarshal(body, &got); err != nil || got.Op != OpResume {
			t.Fatalf("v1 body: %v %+v", err, got)
		}
	})

	t.Run("v1 without context", func(t *testing.T) {
		for _, tc := range []*TraceContext{nil, {}} {
			var buf bytes.Buffer
			if err := WriteFrameV(&buf, req, 1, tc); err != nil {
				t.Fatal(err)
			}
			payload, err := ReadFrame(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if payload[0] != 0 {
				t.Fatalf("flags byte = %#x, want 0", payload[0])
			}
			got, body, err := ParsePayload(payload, 1)
			if err != nil || got != nil {
				t.Fatalf("parse: tc=%v err=%v", got, err)
			}
			var r Request
			if err := json.Unmarshal(body, &r); err != nil || r.ID != 7 {
				t.Fatalf("body: %v %+v", err, r)
			}
		}
	})

	t.Run("v2 State tail", func(t *testing.T) {
		state := json.RawMessage(`{"frames":[{"name":"<module>","line":3}]}`)
		resp := &Response{ID: 9, Status: &Status{Line: 3}, State: state}
		want := &TraceContext{TraceID: 5, SpanID: 6}
		var buf bytes.Buffer
		if err := WriteFrameV(&buf, resp, 2, want); err != nil {
			t.Fatal(err)
		}
		if string(resp.State) != string(state) {
			t.Fatalf("writing moved the caller's State: %q", resp.State)
		}
		payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] != flagTraceContext|flagStateTail {
			t.Fatalf("flags byte = %#x, want trace context and State tail", payload[0])
		}
		tc, body, tail, err := splitPayload(payload, 2)
		if err != nil {
			t.Fatal(err)
		}
		if tc == nil || *tc != *want {
			t.Fatalf("context drifted: %+v", tc)
		}
		if string(tail) != string(state) {
			t.Fatalf("tail = %q, want the State bytes", tail)
		}
		if bytes.Contains(body, []byte(`"state"`)) {
			t.Fatalf("State still inside the JSON body: %s", body)
		}
		var got Response
		if err := json.Unmarshal(body, &got); err != nil || got.ID != 9 || got.Status.Line != 3 {
			t.Fatalf("v2 body: %v %+v", err, got)
		}
		// A request never carries a tail, and a payload without one has no
		// body length: flags, JSON, checksum.
		buf.Reset()
		if err := WriteFrameV(&buf, req, 2, nil); err != nil {
			t.Fatal(err)
		}
		if payload, err = ReadFrame(&buf); err != nil {
			t.Fatal(err)
		}
		if payload[0] != 0 || payload[len(payload)-crcSize-1] != '}' {
			t.Fatalf("v2 request payload = %q, want [0][JSON][CRC]", payload)
		}
		if _, body, err := ParsePayload(payload, 2); err != nil || !json.Valid(body) {
			t.Fatalf("v2 request parse: %v %q", err, body)
		}
	})
}

func TestParsePayloadRejects(t *testing.T) {
	// v2 builds a payload whose checksum is right, so the rejection is the
	// structural one the case names.
	v2 := func(p ...byte) []byte {
		return binary.BigEndian.AppendUint32(p, crc32.Checksum(p, castagnoli))
	}
	cases := []struct {
		name    string
		payload []byte
		tracev  int
	}{
		{"empty v1", nil, 1},
		{"unknown flags", []byte{0x80, '{', '}'}, 1},
		{"truncated context", append([]byte{flagTraceContext}, make([]byte, 8)...), 1},
		{"State tail at v1", []byte{flagStateTail, 0, 0, 0, 2, '{', '}'}, 1},
		{"empty v2", nil, 2},
		{"v2 without checksum", []byte{0, '{', '}'}, 2},
		{"bad checksum", []byte{0, '{', '}', 0, 0, 0, 0}, 2},
		{"unknown v2 flags", v2(0x80, '{', '}'), 2},
		{"truncated body length", v2(flagStateTail, 0, 0), 2},
		{"body length past payload", v2(flagStateTail, 0, 0, 0, 3, '{', '}'), 2},
		{"request with a State tail", v2(flagStateTail, 0, 0, 0, 2, '{', '}', '{', '}'), 2},
	}
	for _, c := range cases {
		if _, _, err := ParsePayload(c.payload, c.tracev); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	_, _, err := ParsePayload([]byte{0, '{', '}', 0, 0, 0, 0}, 2)
	var de *DecodeError
	if !errors.As(err, &de) || !errors.Is(err, ErrChecksum) {
		t.Errorf("bad checksum: err = %v, want a *DecodeError wrapping ErrChecksum", err)
	}
}

// TestTraceOldClientNewServer speaks raw v0 (no TraceV in the hello) at a
// current server: the negotiated version must stay 0 and every response must
// come back as bare JSON.
func TestTraceOldClientNewServer(t *testing.T) {
	_, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	call := func(req *Request) *Response {
		t.Helper()
		if err := WriteFrame(nc, req); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) == 0 || payload[0] != '{' {
			t.Fatalf("response is not bare JSON: %q", payload[:min(8, len(payload))])
		}
		var resp Response
		if err := json.Unmarshal(payload, &resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}

	hello := call(&Request{ID: 1, Op: OpHello, Kind: "minipy"})
	if hello.Err != nil {
		t.Fatalf("hello: %v", hello.Err)
	}
	if hello.TraceV != 0 {
		t.Fatalf("negotiated tracev = %d against a v0 client, want 0", hello.TraceV)
	}
	load := call(&Request{ID: 2, Op: OpLoad, Path: "count.py", Load: &LoadSpec{Source: countPy}})
	if load.Err != nil {
		t.Fatalf("load over v0 framing: %v", load.Err)
	}
}

// TestTraceNewClientOldServer runs the current client against a stub server
// that predates trace framing: it never sends TraceV and decodes every
// payload as bare JSON, so any v1 framing byte from the client would break
// the decode and fail the test.
func TestTraceNewClientOldServer(t *testing.T) {
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
		for {
			payload, err := ReadFrame(nc)
			if err != nil {
				errc <- nil // connection closed by client: done
				return
			}
			var req Request
			if err := json.Unmarshal(payload, &req); err != nil {
				errc <- err // v1 framing leaked to an old peer
				return
			}
			resp := &Response{ID: req.ID}
			if req.Op == OpHello {
				resp.Session, resp.Kind = 1, req.Kind
				resp.Caps = &core.CapabilitySet{State: true}
				// No TraceV: an old server has never heard of it.
			} else {
				resp.Status = &Status{}
			}
			if err := WriteFrame(nc, resp); err != nil {
				errc <- err
				return
			}
		}
	}()

	tr, err := Connect(ln.Addr().String(), "minipy")
	if err != nil {
		t.Fatal(err)
	}
	// Span tracing on client-side: spans still record locally, but the wire
	// must stay v0 because the peer never negotiated up.
	if err := tr.LoadProgram("count.py", core.WithSource(countPy),
		core.WithObservability(core.WithSpanTracing(64))); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if err := <-errc; err != nil {
		t.Fatalf("old server failed to decode client frames: %v", err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("client spans missing despite tracing enabled")
	}
}

// TestTraceConformanceLoopback is the end-to-end acceptance test: one client
// Resume produces client, server-executor and backend spans sharing one
// trace id, linked parent to child across the process boundary.
func TestTraceConformanceLoopback(t *testing.T) {
	srv, addr := startServer(t)
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.LoadProgram("count.py", core.WithSource(countPy),
		core.WithObservability(core.WithSpanTracing(256))); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}

	find := func(spans []obs.SpanRecord, name string) *obs.SpanRecord {
		t.Helper()
		for i := range spans {
			if spans[i].Name == name {
				return &spans[i]
			}
		}
		t.Fatalf("span %q not found in %d spans", name, len(spans))
		return nil
	}

	clientSpans, ok := core.SpansOf(tr)
	if !ok {
		t.Fatal("remote tracker does not expose spans")
	}
	serverSpans := srv.Spans()

	call := find(clientSpans, core.SpanCallPrefix+OpResume)
	rpc := find(serverSpans, core.SpanRPCPrefix+OpResume)
	op := find(serverSpans, core.OpResume)

	if call.TraceID == 0 {
		t.Fatal("client call span has no trace id")
	}
	if rpc.TraceID != call.TraceID {
		t.Fatalf("server rpc span trace %x != client trace %x", rpc.TraceID, call.TraceID)
	}
	if rpc.Parent != call.SpanID {
		t.Fatalf("server rpc span parent %x != client span %x", rpc.Parent, call.SpanID)
	}
	if op.TraceID != call.TraceID {
		t.Fatalf("backend op span trace %x != client trace %x", op.TraceID, call.TraceID)
	}
	if op.Parent != rpc.SpanID {
		t.Fatalf("backend op span parent %x != rpc span %x", op.Parent, rpc.SpanID)
	}
	if call.Proc != "remote[minipy]" || rpc.Proc != "et-serve" || op.Proc != "minipy" {
		t.Fatalf("proc labels drifted: %q %q %q", call.Proc, rpc.Proc, op.Proc)
	}
	// The backend's ambient parent must be reset between requests: the
	// op.start span from the earlier Start call parents onto ITS rpc span,
	// not onto Resume's.
	startOp := find(serverSpans, core.OpStart)
	startRPC := find(serverSpans, core.SpanRPCPrefix+OpStart)
	if startOp.Parent != startRPC.SpanID {
		t.Fatalf("op.start parent %x != rpc.start span %x", startOp.Parent, startRPC.SpanID)
	}
	if startOp.TraceID == op.TraceID {
		t.Fatal("start and resume ended up in one trace; ambient parent leaked")
	}
}

// FuzzTraceContextDecode drives the v1/v2 payload splitter with arbitrary
// bytes and framing versions: trace contexts, State tails with their body
// length, and v2 checksums. Properties: never panics, and every payload it
// accepts re-encodes bit for bit and re-parses to the same parts.
func FuzzTraceContextDecode(f *testing.F) {
	enc := func(tc *TraceContext, body []byte) []byte {
		p := []byte{0}
		if tc != nil {
			p[0] = flagTraceContext
			var ctx [traceCtxSize]byte
			binary.BigEndian.PutUint64(ctx[:8], tc.TraceID)
			binary.BigEndian.PutUint64(ctx[8:], tc.SpanID)
			p = append(p, ctx[:]...)
		}
		return append(p, body...)
	}
	f.Add(enc(&TraceContext{TraceID: 1, SpanID: 2}, []byte(`{"id":1}`)), 1)
	f.Add(enc(nil, []byte(`{"id":2}`)), 1)
	f.Add([]byte(`{"id":3}`), 0)
	f.Add([]byte{0x80, '{', '}'}, 1)
	f.Add([]byte{flagTraceContext, 1, 2, 3}, 1)
	f.Add([]byte{}, 1)
	v2 := func(tc *TraceContext, body, tail []byte) []byte {
		return appendPayload(nil, 2, tc, body, tail)
	}
	f.Add(v2(nil, []byte(`{"id":4}`), nil), 2)
	f.Add(v2(&TraceContext{TraceID: 1, SpanID: 2}, []byte(`{"id":5}`), []byte(`{"frames":[]}`)), 2)
	f.Add(v2(nil, []byte(`{"id":6}`), []byte{}), 2)
	f.Add([]byte{flagStateTail, 0, 0, 0, 9, '{', '}', 0, 0, 0, 0}, 2)
	f.Add([]byte{0, '{', '}', 1, 2, 3, 4}, 2)

	f.Fuzz(func(t *testing.T, payload []byte, tracev int) {
		tracev &= 3
		if tracev > FrameVersion {
			tracev = FrameVersion
		}
		tc, body, tail, err := splitPayload(payload, tracev)
		if err != nil {
			return // rejecting garbage is fine; not panicking is the test
		}
		if tracev == 0 {
			if tc != nil || tail != nil || !bytes.Equal(body, payload) {
				t.Fatalf("v0 must pass payload through untouched")
			}
			return
		}
		if tracev == 1 {
			if tail != nil {
				t.Fatalf("v1 payload produced a State tail")
			}
			if re := enc(tc, body); !bytes.Equal(re, payload) {
				t.Fatalf("v1 re-encode drifted: %x -> %x", payload, re)
			}
		}
		re := appendPayload(nil, tracev, tc, body, tail)
		if !bytes.Equal(re, payload) {
			t.Fatalf("re-encode drifted: %x -> %x", payload, re)
		}
		tc2, body2, tail2, err := splitPayload(re, tracev)
		if err != nil {
			t.Fatalf("re-parsing accepted payload: %v", err)
		}
		if (tc == nil) != (tc2 == nil) || (tc != nil && *tc != *tc2) {
			t.Fatalf("context drifted: %+v -> %+v", tc, tc2)
		}
		if !bytes.Equal(body, body2) || (tail == nil) != (tail2 == nil) || !bytes.Equal(tail, tail2) {
			t.Fatalf("body or tail drifted")
		}
	})
}
