// Package remote is the network layer of the tracker library: a stdlib-only
// wire protocol (length-prefixed JSON frames over any net.Conn) with two
// halves. The Server (server.go, cmd/et-serve) hosts many concurrent tracker
// sessions — MiniPy, MiniGDB and trace-replay backends — behind a session
// manager with admission limits, per-session resource budgets, idle
// eviction and graceful drain. The client Tracker (client.go) implements
// the full core.Tracker interface plus the capability surfaces over that
// protocol, so every tool written against the library drives a remote
// inferior unchanged.
//
// The split follows Langevine & Ducassé's tracer-driver architecture: the
// tracer (the tracker session, next to the inferior) and the analysis
// program (the tool) are separate processes connected by a socket, with the
// synchronous request/response discipline the Tracker contract already
// imposes. Errors cross the wire through core's error codec, so
// errors.Is(err, easytracker.ErrCommandTimeout) and friends hold
// identically for local and remote trackers.
package remote

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"easytracker/internal/core"
)

// MaxFrame bounds one wire frame (the 4-byte length prefix counts only the
// payload). Full State snapshots of heap-heavy inferiors are the largest
// unit shipped; 64 MiB leaves room without letting a corrupt length prefix
// allocate unbounded memory.
const MaxFrame = 64 << 20

// ErrFrameTooLarge reports a length prefix beyond MaxFrame — protocol
// corruption or a hostile peer; the connection is unusable afterwards.
var ErrFrameTooLarge = errors.New("remote: frame exceeds size limit")

// DecodeError is the typed failure of a frame decode: where in the frame
// the stream went bad and what the length prefix promised. It wraps the
// underlying cause (ErrFrameTooLarge for a hostile prefix,
// io.ErrUnexpectedEOF for a stream cut mid-frame — the torn-frame
// signature — and ErrChecksum for a payload corrupted in transit), so
// errors.Is keeps working; the client surfaces it inside
// TrackerError.Err, where errors.As(&DecodeError{}) tells a corrupt frame
// apart from an ordinary hangup.
type DecodeError struct {
	// Offset is how many bytes of the frame (prefix included) arrived
	// before the failure.
	Offset int
	// Len is the payload length the prefix promised; -1 when the stream
	// died inside the prefix itself.
	Len int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *DecodeError) Error() string {
	if e.Len < 0 {
		return fmt.Sprintf("remote: frame torn in length prefix after %d bytes: %v", e.Offset, e.Err)
	}
	return fmt.Sprintf("remote: frame decode failed at offset %d (payload length %d): %v", e.Offset, e.Len, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *DecodeError) Unwrap() error { return e.Err }

// frameReader reads the frames of one connection. It holds the length
// prefix being read: io.ReadFull reads through an interface, so a prefix
// on the reader's stack would move to the heap at every frame.
type frameReader struct{ prefix [4]byte }

// readFrame reads one length-prefixed frame payload into a pooled buffer,
// taken only once the length prefix has arrived, so a reader waiting for
// the next frame holds none. The length is bounds-checked before the
// buffer is sized, so a corrupt prefix cannot balloon memory. io.EOF is
// returned untouched on a clean end-of-stream boundary; a stream cut
// mid-frame yields io.ErrUnexpectedEOF. The payload aliases the buffer,
// which the caller releases.
func (fr *frameReader) readFrame(r io.Reader) (*frameBuf, []byte, error) {
	n, err := fr.readPrefix(r)
	if err != nil {
		return nil, nil, err
	}
	f := getFrame()
	if cap(f.b) < n {
		f.b = make([]byte, n)
	}
	payload := f.b[:n]
	if err := readPayload(r, payload); err != nil {
		f.release()
		return nil, nil, err
	}
	return f, payload, nil
}

// readPrefix reads a frame's length prefix and checks it against MaxFrame.
func (fr *frameReader) readPrefix(r io.Reader) (int, error) {
	if m, err := io.ReadFull(r, fr.prefix[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// Torn mid-length-prefix: 1–3 bytes of header arrived.
			return 0, &DecodeError{Offset: m, Len: -1, Err: io.ErrUnexpectedEOF}
		}
		return 0, err
	}
	n := binary.BigEndian.Uint32(fr.prefix[:])
	if n > MaxFrame {
		return 0, &DecodeError{Offset: 4, Len: int(n), Err: ErrFrameTooLarge}
	}
	return int(n), nil
}

// readPayload fills payload, the body of a frame whose prefix was read.
func readPayload(r io.Reader, payload []byte) error {
	if m, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Torn mid-payload: the prefix promised n bytes, fewer came.
			return &DecodeError{Offset: 4 + m, Len: len(payload), Err: io.ErrUnexpectedEOF}
		}
		return err
	}
	return nil
}

// frameBuf is one pooled frame buffer. Each frame is built in one, prefix
// to checksum, and read into one; a response's State tail and its Status's
// pause reason alias the buffer they arrived in until it is released.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, minFrameBuf)} }}

// A new buffer holds a typical State reply; one grown past maxPooledFrame
// by a rare huge frame is left to the collector rather than pooled.
const (
	minFrameBuf    = 4 << 10
	maxPooledFrame = 64 << 10
)

func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

// release puts f back in the pool; nothing may read its bytes afterwards.
// Safe on nil.
func (f *frameBuf) release() {
	if f == nil || cap(f.b) > maxPooledFrame {
		return
	}
	f.b = f.b[:0]
	framePool.Put(f)
}

// Every payload, the hello and its reply included, is
//
//	[flags][16-byte trace context when flags&flagTraceContext]
//	[4-byte body length when flags&flagStateTail]
//	[JSON][State bytes when flags&flagStateTail][4-byte CRC-32C]
//
// so a request can carry the client span that caused it without touching
// the JSON schema, and a peer that has nothing to propagate pays one byte.
// A response's State crosses as the codec's own bytes after the JSON body,
// where encoding/json neither compacts it on the way out nor scans it twice
// on the way in. The checksum covers everything before it, so a flipped
// bit that would leave the JSON parseable still kills the connection.

const (
	// flagTraceContext marks a payload carrying a 16-byte trace context
	// (big-endian trace id, then span id) between the flags byte and the
	// JSON body.
	flagTraceContext = 0x01
	// flagStateTail (responses only) marks a payload whose State rides
	// after the JSON body, which is prefixed by its 4-byte length.
	flagStateTail = 0x02

	// traceCtxSize is the encoded size of one TraceContext.
	traceCtxSize = 16
	// bodyLenSize and crcSize are the body-length and checksum fields.
	bodyLenSize = 4
	crcSize     = 4
)

// castagnoli is the CRC-32C table of the payload checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a payload whose CRC-32C does not match: the bytes
// were corrupted in transit and the connection is unusable afterwards. It
// arrives wrapped in a *DecodeError.
var ErrChecksum = errors.New("remote: frame checksum mismatch")

// TraceContext is the span identity a frame can carry across the wire: the
// sender's in-flight span, which the receiver adopts as the parent of the
// work the frame causes.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// encodeFrame builds the whole frame for v in one pooled buffer, which the
// caller writes and releases, with the trace context tc (nil or zero means
// "none"). A Request's or Response's body comes from the envelope codec,
// anything else's from json.Marshal. The tail is st, appended by its codec
// straight after the body, when st is non-nil, and else a Response's State
// bytes.
func encodeFrame(v any, tc *TraceContext, st *core.State) (*frameBuf, error) {
	if tc != nil && *tc == (TraceContext{}) {
		tc = nil
	}
	resp, _ := v.(*Response)
	tail := st != nil || resp != nil && len(resp.State) > 0
	f := getFrame()
	b := append(f.b[:0], 0, 0, 0, 0) // the length prefix, set below
	b = beginPayload(b, tc, tail)
	bodyAt := len(b)
	var err error
	switch v := v.(type) {
	case *Request:
		b, err = appendRequest(b, v)
	case *Response:
		b, err = appendResponse(b, v)
	default:
		var body []byte
		body, err = json.Marshal(v)
		b = append(b, body...)
	}
	if tail {
		endBody(b, bodyAt)
		if st != nil {
			b = st.AppendJSON(b)
		} else {
			b = append(b, resp.State...)
		}
	}
	f.b = sealPayload(b, 4)
	n := len(f.b) - 4
	switch {
	case err != nil:
		err = fmt.Errorf("remote: encoding frame: %w", err)
	case n > MaxFrame:
		err = ErrFrameTooLarge
	}
	if err != nil {
		f.release()
		return nil, err
	}
	binary.BigEndian.PutUint32(f.b, uint32(n))
	return f, nil
}

// beginPayload appends a payload's header to b: the flags byte, the trace
// context when tc is non-nil, and when the payload has a tail, a body
// length for endBody to fill in.
func beginPayload(b []byte, tc *TraceContext, tail bool) []byte {
	var flags byte
	if tc != nil {
		flags |= flagTraceContext
	}
	if tail {
		flags |= flagStateTail
	}
	b = append(b, flags)
	if tc != nil {
		b = binary.BigEndian.AppendUint64(b, tc.TraceID)
		b = binary.BigEndian.AppendUint64(b, tc.SpanID)
	}
	if tail {
		b = append(b, 0, 0, 0, 0)
	}
	return b
}

// endBody sets the body length of a payload with a tail whose body began
// at bodyAt and ends at len(b).
func endBody(b []byte, bodyAt int) {
	binary.BigEndian.PutUint32(b[bodyAt-bodyLenSize:], uint32(len(b)-bodyAt))
}

// sealPayload appends the checksum of the payload that begins at start.
func sealPayload(b []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// ParsePayload splits one request payload read by readFrame into its
// optional trace context and the JSON body. Only responses carry a State
// tail, so a request with one is rejected. The returned body aliases
// payload.
func ParsePayload(payload []byte) (*TraceContext, []byte, error) {
	ctx, body, tail, err := cutPayload(payload)
	if err == nil && tail != nil {
		err = errors.New("remote: request frame carries a State tail")
	}
	var tc *TraceContext
	if ctx != nil {
		tc = &TraceContext{
			TraceID: binary.BigEndian.Uint64(ctx[:8]),
			SpanID:  binary.BigEndian.Uint64(ctx[8:]),
		}
	}
	return tc, body, err
}

// cutPayload splits one payload into its trace context, JSON body and
// State tail. tc is the context's 16 bytes, nil when the payload carries
// none; tail is non-nil exactly when the payload set flagStateTail. All
// three alias payload. A payload whose checksum does not match fails with
// a *DecodeError wrapping ErrChecksum.
func cutPayload(payload []byte) (tc, body, tail []byte, err error) {
	if len(payload) < 1+crcSize {
		return nil, nil, nil, fmt.Errorf("remote: short frame payload (%d bytes)", len(payload))
	}
	n := len(payload) - crcSize
	if crc32.Checksum(payload[:n], castagnoli) != binary.BigEndian.Uint32(payload[n:]) {
		return nil, nil, nil, &DecodeError{Offset: 4 + len(payload), Len: len(payload), Err: ErrChecksum}
	}
	p := payload[:n]
	// Unassigned flag bits must be zero: a payload that sets one has a
	// layout this reader cannot split.
	flags := p[0]
	if flags&^(flagTraceContext|flagStateTail) != 0 {
		return nil, nil, nil, fmt.Errorf("remote: unknown frame flags %#x", flags)
	}
	p = p[1:]
	if flags&flagTraceContext != 0 {
		if len(p) < traceCtxSize {
			return nil, nil, nil, fmt.Errorf("remote: truncated trace context (%d bytes)", len(p))
		}
		tc, p = p[:traceCtxSize], p[traceCtxSize:]
	}
	if flags&flagStateTail == 0 {
		return tc, p, nil, nil
	}
	if len(p) < bodyLenSize {
		return nil, nil, nil, fmt.Errorf("remote: truncated body length (%d bytes)", len(p))
	}
	bn := binary.BigEndian.Uint32(p)
	p = p[bodyLenSize:]
	if uint64(bn) > uint64(len(p)) {
		return nil, nil, nil, fmt.Errorf("remote: body length %d runs past the %d-byte payload", bn, len(p))
	}
	return tc, p[:bn:bn], p[bn:], nil
}
