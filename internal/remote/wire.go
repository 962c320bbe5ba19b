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

// ReadFrame reads one length-prefixed frame payload. The length is bounds-
// checked before any payload allocation, so a corrupt prefix cannot balloon
// memory. io.EOF is returned untouched on a clean end-of-stream boundary;
// a stream cut mid-frame yields io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if m, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// Torn mid-length-prefix: 1–3 bytes of header arrived.
			return nil, &DecodeError{Offset: m, Len: -1, Err: io.ErrUnexpectedEOF}
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, &DecodeError{Offset: 4, Len: int(n), Err: ErrFrameTooLarge}
	}
	payload := make([]byte, n)
	if m, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Torn mid-payload: the prefix promised n bytes, fewer came.
			return nil, &DecodeError{Offset: 4 + m, Len: int(n), Err: io.ErrUnexpectedEOF}
		}
		return nil, err
	}
	return payload, nil
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

// WriteFrame marshals v and writes it as one length-prefixed frame, with
// the trace context tc (nil or zero means "none"). A *Response's State
// rides in the tail, outside the JSON.
func WriteFrame(w io.Writer, v any, tc *TraceContext) error {
	var tail []byte
	if resp, ok := v.(*Response); ok && len(resp.State) > 0 {
		tail = resp.State
	}
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("remote: encoding frame: %w", err)
	}
	if tc != nil && tc.TraceID == 0 && tc.SpanID == 0 {
		tc = nil
	}
	n := 1 + len(body) + len(tail) + crcSize
	if tc != nil {
		n += traceCtxSize
	}
	if tail != nil {
		n += bodyLenSize
	}
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 4, 4+n)
	binary.BigEndian.PutUint32(buf, uint32(n))
	_, err = w.Write(appendPayload(buf, tc, body, tail))
	return err
}

// appendPayload appends one payload to dst: the flags byte, the trace
// context when tc is non-nil, the body length when tail is non-nil, the
// body, the tail and the checksum.
func appendPayload(dst []byte, tc *TraceContext, body, tail []byte) []byte {
	start := len(dst)
	var flags byte
	if tc != nil {
		flags |= flagTraceContext
	}
	if tail != nil {
		flags |= flagStateTail
	}
	dst = append(dst, flags)
	if tc != nil {
		dst = binary.BigEndian.AppendUint64(dst, tc.TraceID)
		dst = binary.BigEndian.AppendUint64(dst, tc.SpanID)
	}
	if tail != nil {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	}
	dst = append(dst, body...)
	dst = append(dst, tail...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// ParsePayload splits one request payload read by ReadFrame into its
// optional trace context and the JSON body. Only responses carry a State
// tail, so a request with one is rejected. The returned body aliases
// payload.
func ParsePayload(payload []byte) (*TraceContext, []byte, error) {
	tc, body, tail, err := splitPayload(payload)
	if err == nil && tail != nil {
		err = errors.New("remote: request frame carries a State tail")
	}
	return tc, body, err
}

// splitPayload splits one payload into its trace context, JSON body and
// State tail. tail is non-nil exactly when the payload set flagStateTail;
// body and tail alias payload. A payload whose checksum does not match
// fails with a *DecodeError wrapping ErrChecksum.
func splitPayload(payload []byte) (tc *TraceContext, body, tail []byte, err error) {
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
		tc = &TraceContext{
			TraceID: binary.BigEndian.Uint64(p[:8]),
			SpanID:  binary.BigEndian.Uint64(p[8:16]),
		}
		p = p[traceCtxSize:]
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
