package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/obs"
)

// TestFramePayloadRoundTrip writes frames with and without a trace context
// and a State tail and splits them back into the same parts. A payload
// without a tail has no body length, and a zero trace context is none.
func TestFramePayloadRoundTrip(t *testing.T) {
	state := json.RawMessage(`{"frames":[{"name":"<module>","line":3}]}`)
	ctx := &TraceContext{TraceID: 5, SpanID: 6}
	cases := []struct {
		name  string
		tc    *TraceContext
		tail  bool // write a *Response carrying state; else a *Request
		flags byte
	}{
		{"context and State tail", ctx, true, flagTraceContext | flagStateTail},
		{"State tail without context", nil, true, flagStateTail},
		{"context without State tail", ctx, false, flagTraceContext},
		{"no context", nil, false, 0},
		{"zero context", &TraceContext{}, false, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var v any = &Request{ID: 7, Op: OpResume}
			if c.tail {
				v = &Response{ID: 9, Status: &Status{Line: 3}, State: state}
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, v, c.tc); err != nil {
				t.Fatal(err)
			}
			if resp, ok := v.(*Response); ok && string(resp.State) != string(state) {
				t.Fatalf("writing moved the caller's State: %q", resp.State)
			}
			payload, err := ReadFrame(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if payload[0] != c.flags {
				t.Fatalf("flags byte = %#x, want %#x", payload[0], c.flags)
			}
			tc, body, tail, err := splitPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			size := 1 + len(body) + len(tail) + crcSize
			if c.flags&flagTraceContext != 0 {
				if tc == nil || *tc != *ctx {
					t.Fatalf("context drifted: %+v", tc)
				}
				size += traceCtxSize
			} else if tc != nil {
				t.Fatalf("context %+v from a frame written without one", tc)
			}
			if c.tail {
				if string(tail) != string(state) {
					t.Fatalf("tail = %q, want the State bytes", tail)
				}
				size += bodyLenSize
			} else if tail != nil {
				t.Fatalf("tail %q from a frame written without one", tail)
			}
			if len(payload) != size {
				t.Fatalf("payload is %d bytes, want %d: %q", len(payload), size, payload)
			}
			if bytes.Contains(body, []byte(`"state"`)) {
				t.Fatalf("State inside the JSON body: %s", body)
			}
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("body = %s, want %s", body, want)
			}
			// The server's reader agrees, and refuses what only a
			// response may carry.
			ptc, pbody, err := ParsePayload(payload)
			if c.tail {
				if err == nil {
					t.Fatal("ParsePayload accepted a payload with a State tail")
				}
			} else if err != nil || (ptc == nil) != (tc == nil) || !bytes.Equal(pbody, body) {
				t.Fatalf("request parse: tc=%v err=%v body=%q", ptc, err, pbody)
			}
		})
	}
}

// TestResponseStateHasNoJSONForm pins the State tail as the only way a
// State crosses: encoding a Response leaves it out of the JSON, and a
// "state" key inside a JSON body is not read as one.
func TestResponseStateHasNoJSONForm(t *testing.T) {
	body, err := json.Marshal(&Response{ID: 1, State: json.RawMessage(stubDoc)})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(body, []byte(`"state"`)) || bytes.Contains(body, []byte(`"frames"`)) {
		t.Fatalf("encoded Response carries its State in the JSON: %s", body)
	}
	var resp Response
	if err := json.Unmarshal([]byte(`{"id":1,"state":`+stubDoc+`}`), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 || resp.State != nil {
		t.Fatalf("decoded Response = id %d, State %q; want id 1 and no State", resp.ID, resp.State)
	}
}

func TestParsePayloadRejects(t *testing.T) {
	// sum builds a payload whose checksum is right, so the rejection is the
	// structural one the case names.
	sum := func(p ...byte) []byte {
		return binary.BigEndian.AppendUint32(p, crc32.Checksum(p, castagnoli))
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "short frame payload"},
		{"no checksum", []byte{0, '{', '}'}, "short frame payload"},
		{"bad checksum", []byte{0, '{', '}', 0, 0, 0, 0}, "checksum mismatch"},
		{"unknown flags", sum(0x80, '{', '}'), "unknown frame flags"},
		{"truncated trace context", sum(append([]byte{flagTraceContext}, make([]byte, 8)...)...), "truncated trace context"},
		{"truncated body length", sum(flagStateTail, 0, 0), "truncated body length"},
		{"body length past payload", sum(flagStateTail, 0, 0, 0, 3, '{', '}'), "runs past"},
		{"request with a State tail", sum(flagStateTail, 0, 0, 0, 2, '{', '}', '{', '}'), "carries a State tail"},
	}
	for _, c := range cases {
		if _, _, err := ParsePayload(c.payload); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	_, _, err := ParsePayload([]byte{0, '{', '}', 0, 0, 0, 0})
	var de *DecodeError
	if !errors.As(err, &de) || !errors.Is(err, ErrChecksum) {
		t.Errorf("bad checksum: err = %v, want a *DecodeError wrapping ErrChecksum", err)
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

// FuzzTraceContextDecode drives the payload splitter with arbitrary bytes:
// trace contexts, State tails with their body length, and checksums.
// Properties: never panics, and every payload it accepts re-encodes bit for
// bit and re-parses to the same parts.
func FuzzTraceContextDecode(f *testing.F) {
	// sum appends a valid checksum, so a seed reaches the check it shapes.
	sum := func(p ...byte) []byte {
		return binary.BigEndian.AppendUint32(p, crc32.Checksum(p, castagnoli))
	}
	f.Add(appendPayload(nil, &TraceContext{TraceID: 1, SpanID: 2}, []byte(`{"id":1}`), nil))
	f.Add(appendPayload(nil, nil, []byte(`{"id":2}`), nil))
	f.Add([]byte(`{"id":3}`))
	f.Add(sum(0x80, '{', '}'))
	f.Add(sum(flagTraceContext, 1, 2, 3))
	f.Add([]byte{})
	f.Add(appendPayload(nil, &TraceContext{TraceID: 1, SpanID: 2}, []byte(`{"id":5}`), []byte(`{"frames":[]}`)))
	f.Add(appendPayload(nil, nil, []byte(`{"id":6}`), []byte{}))
	f.Add([]byte{flagStateTail, 0, 0, 0, 9, '{', '}', 0, 0, 0, 0})
	f.Add([]byte{0, '{', '}', 1, 2, 3, 4})
	// A payload as the retired v1 framing wrote it: flags, a trace context
	// and the JSON, with no checksum.
	v1 := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{flagTraceContext}, 1), 2)
	f.Add(append(v1, `{"id":4}`...))

	f.Fuzz(func(t *testing.T, payload []byte) {
		tc, body, tail, err := splitPayload(payload)
		if err != nil {
			return // rejecting garbage is fine; not panicking is the test
		}
		re := appendPayload(nil, tc, body, tail)
		if !bytes.Equal(re, payload) {
			t.Fatalf("re-encode drifted: %x -> %x", payload, re)
		}
		tc2, body2, tail2, err := splitPayload(re)
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
