package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reqs := []*Request{
		{ID: 1, Op: OpHello, Kind: "minipy"},
		{ID: 2, Op: OpLoad, Path: "prog.py", Load: &LoadSpec{Source: "x = 1\n", WantStdout: true}},
		{ID: 3, Op: OpBreakLine, File: "prog.py", Line: 7, MaxDepth: 2},
	}
	for _, req := range reqs {
		if err := WriteFrame(&buf, req, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range reqs {
		payload, err := ReadFrame(&buf)
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
		if got.ID != want.ID || got.Op != want.Op || got.Path != want.Path || got.Line != want.Line {
			t.Errorf("frame round trip: got %+v, want %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("exhausted stream: err = %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
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
	if err := WriteFrame(&buf, &Request{ID: 1, Op: OpResume}, nil); err != nil {
		t.Fatal(err)
	}
	want := buf.Len() - 4 // payload the prefix promises
	cut := buf.Bytes()[:buf.Len()-3]
	_, err := ReadFrame(bytes.NewReader(cut))
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
	_, err = ReadFrame(bytes.NewReader(cut[:2]))
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
