package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reqs := []*Request{
		{ID: 1, Op: OpHello, Kind: "minipy"},
		{ID: 2, Op: OpLoad, Path: "prog.py", Load: &LoadSpec{Source: "x = 1\n", WantStdout: true}},
		{ID: 3, Op: OpBreakLine, File: "prog.py", Line: 7, MaxDepth: 2},
		// Larger than a new pooled buffer, which must grow to hold it.
		{ID: 4, Op: OpLoad, Path: "big.py", Load: &LoadSpec{Source: strings.Repeat("x = 1\n", 2*minFrameBuf)}},
		{ID: 5, Op: OpStep},
	}
	for _, req := range reqs {
		if err := writeFrame(&buf, req, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range reqs {
		f, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		_, body, err := ParsePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		// The next frame may be read into this buffer.
		f.release()
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("frame round trip: got %+v, want %+v", got, want)
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Errorf("exhausted stream: err = %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized prefix: err = %v, want ErrFrameTooLarge", err)
	}
	// The typed decode error reports what the prefix promised.
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("oversized prefix: err = %T, want *DecodeError", err)
	}
	if de.Offset != 4 || de.Len != MaxFrame+1 {
		t.Errorf("DecodeError = {Offset: %d, Len: %d}, want {4, %d}", de.Offset, de.Len, MaxFrame+1)
	}
}

func TestFrameCutMidPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Request{ID: 1, Op: OpResume}, nil); err != nil {
		t.Fatal(err)
	}
	want := buf.Len() - 4 // payload the prefix promises
	cut := buf.Bytes()[:buf.Len()-3]
	_, _, err := readFrame(bytes.NewReader(cut))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("mid-frame cut: err = %v, want io.ErrUnexpectedEOF", err)
	}
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("mid-frame cut: err = %T, want *DecodeError", err)
	}
	if de.Len != want || de.Offset != len(cut) {
		t.Errorf("mid-payload DecodeError = {Offset: %d, Len: %d}, want {%d, %d}",
			de.Offset, de.Len, len(cut), want)
	}
	// Cut inside the header is also typed, and distinguishable: Len == -1.
	_, _, err = readFrame(bytes.NewReader(cut[:2]))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("mid-header cut: err = %v, want io.ErrUnexpectedEOF", err)
	}
	de = nil
	if !errors.As(err, &de) {
		t.Fatalf("mid-header cut: err = %T, want *DecodeError", err)
	}
	if de.Offset != 2 || de.Len != -1 {
		t.Errorf("mid-prefix DecodeError = {Offset: %d, Len: %d}, want {2, -1}", de.Offset, de.Len)
	}
	if de.Error() == "" {
		t.Error("DecodeError renders empty")
	}
}

// appendPayload appends one payload to dst: body, and tail when it is
// non-nil, framed as the wire frames them, with the trace context tc.
func appendPayload(dst []byte, tc *TraceContext, body, tail []byte) []byte {
	start := len(dst)
	dst = beginPayload(dst, tc, tail != nil)
	bodyAt := len(dst)
	dst = append(dst, body...)
	if tail != nil {
		endBody(dst, bodyAt)
		dst = append(dst, tail...)
	}
	return sealPayload(dst, start)
}

// writeFrame encodes v and writes it as one frame, with the trace context
// tc, as a client or server sends it.
func writeFrame(w io.Writer, v any, tc *TraceContext) error {
	f, err := encodeFrame(v, tc, nil)
	if err != nil {
		return err
	}
	_, err = w.Write(f.b)
	f.release()
	return err
}

// readFrame reads one frame as a client or server reads it, through a
// frameReader of its own.
func readFrame(r io.Reader) (*frameBuf, []byte, error) {
	return new(frameReader).readFrame(r)
}

// traceContext decodes the trace-context bytes cutPayload returns; nil
// stays nil.
func traceContext(b []byte) *TraceContext {
	if b == nil {
		return nil
	}
	return &TraceContext{TraceID: binary.BigEndian.Uint64(b[:8]), SpanID: binary.BigEndian.Uint64(b[8:])}
}
