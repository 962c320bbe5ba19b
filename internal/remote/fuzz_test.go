package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// FuzzWireDecode drives the server's request decode — ReadFrame, then
// ParsePayload, then the JSON — with arbitrary bytes: the exact stream a
// hostile or corrupted client could feed the server. A hostile peer can
// compute a CRC-32C too, so each payload is also decoded as the JSON body
// of a frame with a valid checksum; that is how corpus entries written as
// bare JSON still reach the JSON decoder. Properties: the decoder never
// panics and never allocates beyond MaxFrame no matter the length prefix,
// the reader consumes exactly one frame, and every request it accepts
// survives a re-encode/re-decode round trip with its trace context.
func FuzzWireDecode(f *testing.F) {
	frame := func(v any) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, v, nil); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(&Request{ID: 1, Op: OpHello, Kind: "minipy"}))
	f.Add(frame(&Request{ID: 2, Op: OpLoad, Path: "prog.py",
		Load: &LoadSpec{Source: "x = 1\n", Stdin: "in", WantStdout: true}}))
	f.Add(frame(&Request{ID: 3, Op: OpBreakLine, File: "prog.py", Line: 7, MaxDepth: 1}))
	f.Add(frame(&Request{ID: 4, Op: OpWatch, Var: "::total"}))
	f.Add(frame(&Request{ID: 5, Op: OpInterrupt}))
	// Two frames back to back: the reader must consume exactly one.
	f.Add(append(frame(&Request{ID: 6, Op: OpResume}), frame(&Request{ID: 7, Op: OpStep})...))
	// Corrupt length prefixes and truncations.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 8, '{', '}'})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := ReadFrame(r)
		if err != nil {
			return // rejecting garbage is fine; not panicking is the test
		}
		if rest := len(data) - 4 - len(payload); r.Len() != rest {
			t.Fatalf("reader left %d bytes of the stream, want %d", r.Len(), rest)
		}
		decodeRequest(t, payload)
		decodeRequest(t, appendPayload(nil, nil, payload, nil))
	})
}

// decodeRequest decodes payload as the server does and, when it holds a
// request, checks that the request and its trace context survive a
// re-encode/re-decode round trip.
func decodeRequest(t *testing.T, payload []byte) {
	t.Helper()
	tc, body, err := ParsePayload(payload)
	if err != nil {
		return
	}
	var req Request
	if json.Unmarshal(body, &req) != nil {
		return
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &req, tc); err != nil {
		t.Fatalf("re-encoding accepted request: %v", err)
	}
	payload2, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("re-reading re-encoded frame: %v", err)
	}
	tc2, body2, err := ParsePayload(payload2)
	if err != nil {
		t.Fatalf("re-parsing re-encoded frame: %v", err)
	}
	var req2 Request
	if err := json.Unmarshal(body2, &req2); err != nil {
		t.Fatalf("re-decoding: %v", err)
	}
	if req.ID != req2.ID || req.Op != req2.Op || req.Path != req2.Path ||
		req.File != req2.File || req.Line != req2.Line || req.Func != req2.Func ||
		req.Var != req2.Var || req.Kind != req2.Kind {
		t.Fatalf("round trip drifted: %+v -> %+v", req, req2)
	}
	// A zero context is no context: WriteFrame drops it.
	var ctx, ctx2 TraceContext
	if tc != nil {
		ctx = *tc
	}
	if tc2 != nil {
		ctx2 = *tc2
	}
	if ctx != ctx2 {
		t.Fatalf("trace context drifted: %+v -> %+v", ctx, ctx2)
	}
}

// FuzzWireDecodeTorn cuts well-formed frames at an arbitrary byte boundary —
// the stream a connection severed mid-transfer leaves behind. Properties:
// every non-clean truncation is reported as a typed *DecodeError that still
// matches the generic sentinels via errors.Is, the error's Offset/Len
// describe the cut honestly, and a cut never decodes as success.
func FuzzWireDecodeTorn(f *testing.F) {
	frame := func(v any) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, v, nil); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	whole := frame(&Request{ID: 9, Op: OpLoad, Path: "prog.py",
		Load: &LoadSpec{Source: "x = 1\nwhile x < 100:\n    x = x + 1\n"}})
	for _, cut := range []int{1, 2, 3, 4, 5, len(whole) / 2, len(whole) - 1} {
		f.Add(whole, cut)
	}
	f.Add(frame(&Request{ID: 1, Op: OpState}), 0)

	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if cut < 0 || cut > len(data) {
			return
		}
		torn := data[:cut]
		payload, err := ReadFrame(bytes.NewReader(torn))
		if err == nil {
			// A successful read must have had a complete frame available.
			if cut < 4 || 4+len(payload) > cut {
				t.Fatalf("cut at %d produced a %d-byte payload out of thin air", cut, len(payload))
			}
			return
		}
		if err == io.EOF {
			if cut != 0 {
				t.Fatalf("cut at %d misreported as clean EOF", cut)
			}
			return
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			// Only torn streams must be typed; other rejects (none reachable
			// from a bytes.Reader) would land here.
			t.Fatalf("torn stream error %v (%T) is not a *DecodeError", err, err)
		}
		if de.Len == -1 {
			if !errors.Is(err, io.ErrUnexpectedEOF) || de.Offset >= 4 {
				t.Fatalf("mid-prefix error lies: %+v", de)
			}
		} else if !errors.Is(err, ErrFrameTooLarge) {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("mid-payload error lost its sentinel: %v", err)
			}
			if de.Offset > cut || de.Len < 0 {
				t.Fatalf("mid-payload error lies about the cut: %+v (cut %d)", de, cut)
			}
		}
	})
}
