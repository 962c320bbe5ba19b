package remote

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"easytracker/internal/core"
)

// FuzzEnvelope holds the envelope codec to encoding/json. For any body,
// unmarshalRequest and unmarshalResponse fail exactly where json.Unmarshal
// fails and otherwise build DeepEqual values, and whatever decodes
// re-encodes to json.Marshal's bytes. It is seeded with the bodies of
// FuzzWireDecode's corpus and of the golden frames.
func FuzzEnvelope(f *testing.F) {
	for _, body := range seedBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req, jreq Request
		checkDecode(t, body, unmarshalRequest(body, &req), json.Unmarshal(body, &jreq), &req, &jreq)
		var resp, jresp Response
		checkDecode(t, body, unmarshalResponse(body, &resp), json.Unmarshal(body, &jresp), &resp, &jresp)
	})
}

// checkDecode compares one decode by the envelope codec (got, err) with
// encoding/json's (want, jerr) and, when both succeed, re-encodes got.
func checkDecode(t *testing.T, body []byte, err, jerr error, got, want any) {
	t.Helper()
	if (err == nil) != (jerr == nil) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", body, err, jerr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: codec decoded %+v, encoding/json %+v", body, got, want)
	}
	var enc []byte
	switch v := got.(type) {
	case *Request:
		enc, err = appendRequest(nil, v)
	case *Response:
		enc, err = appendResponse(nil, v)
	}
	js, jerr := json.Marshal(got)
	if (err == nil) != (jerr == nil) || !bytes.Equal(enc, js) {
		t.Fatalf("%q decoded to %+v, which re-encodes to %q (%v), not %q (%v)", body, got, enc, err, js, jerr)
	}
}

// seedBodies returns the JSON bodies of the golden frames and, for each
// entry of FuzzWireDecode's corpus, the body of the frame it holds and the
// frame's payload read as a body.
func seedBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var bodies [][]byte
	frames, _ := filepath.Glob(filepath.Join("testdata", "frames", "*.bin"))
	corpus, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzWireDecode", "*"))
	if len(frames) == 0 || len(corpus) == 0 {
		tb.Fatal("no golden frames or no FuzzWireDecode corpus")
	}
	for _, name := range append(frames, corpus...) {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		if filepath.Ext(name) != ".bin" {
			// go test fuzz v1, then one line: []byte("...").
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			q := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
			s, err := strconv.Unquote(q)
			if err != nil {
				tb.Fatalf("%s: %v", name, err)
			}
			data = []byte(s)
		}
		_, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			continue
		}
		bodies = append(bodies, payload)
		if _, body, _, err := cutPayload(payload); err == nil {
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// TestEnvelopeAgainstEncodingJSON pins bodies on both sides of the codec's
// own pass, escapes and bodies it leaves to encoding/json: each must decode
// as encoding/json decodes it.
func TestEnvelopeAgainstEncodingJSON(t *testing.T) {
	for _, body := range []string{
		`{"id":1,"op":"step"}`,
		`{"id":1,"op":"st\u0065p","file":"a\u003cb\n\t\"\\\/\u00e9","line":-3}`,
		`{"id":1,"op":"step","file":"\ud83d\ude00"}`,
		`{"id":1,"op":"step","file":"\ud83d"}`,
		`{"id":1,"op":"step","file":"\x"}`,
		`{ "id":1,"op":"step"}`,
		`{"op":"step","id":1}`,
		`{"ID":1,"Op":"step","Line":3}`,
		`{"id":1,"op":"step","line":3,"line":4}`,
		`{"id":1,"op":"step","file":"a<b😀"}`,
		"{\"id\":1,\"op\":\"step\",\"file\":\"\xff\"}",
		`{"id":1.0,"op":"step"}`,
		`{"id":1,"op":"step","line":-0}`,
		`{"id":1,"op":"step","unknown":[1,{"x":null}]}`,
		`{"id":1,"op":"load","load":{"source":"x = 1\n"}}`,
		`{"id":1,"op":"step","want_state":null}`,
		`{"id":1,"op":"step"} `,
		`{"id":18446744073709551616,"op":"step"}`,
		`{"id":1,"status":{"reason":{"type":"STEP"},"file":"p.py","line":2,"stdout":"a\nb"}}`,
		`{"id":1,"status":{"reason":{ "type" : "STEP" }}}`,
		`{"id":1,"status":{"reason":{"type":"STEP"]}}`,
		`{"id":1,"status":{"reason":null}}`,
		`{"id":1,"status":null}`,
		`{"id":1,"status":{}}`,
		`{"id":1,"status":{"line":1},"session":2}`,
		`{"id":1,"err":{"code":"exited","msg":"done"}}`,
		`null`,
		``,
	} {
		b := []byte(body)
		var req, jreq Request
		checkDecode(t, b, unmarshalRequest(b, &req), json.Unmarshal(b, &jreq), &req, &jreq)
		var resp, jresp Response
		checkDecode(t, b, unmarshalResponse(b, &resp), json.Unmarshal(b, &jresp), &resp, &jresp)
	}
}

// TestEnvelopeRandomMessages encodes 20,000 random requests and responses,
// with strings built from the pieces the escaper rewrites, and holds the
// codec to encoding/json: the codec writes json.Marshal's bytes, and reads
// them back as json.Unmarshal does.
func TestEnvelopeRandomMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "prog.py", "<", ">", "&", " ", " ", "\x00", "\x1f", "\n",
		"\t", `"`, `\`, "/", "é", "😀", "\xff", "�", " "}
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	num := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Intn(100)
		case 2:
			return -rng.Intn(1000)
		}
		return int(rng.Int63() >> rng.Intn(63))
	}
	raws := []string{`{ "type" : "STEP" }`, `{"type":"a<b"}`, "[1,\n2]", `" "`}
	reason := func() json.RawMessage {
		if rng.Intn(4) == 0 {
			return json.RawMessage(raws[rng.Intn(len(raws))])
		}
		raw, err := core.EncodePauseReasonJSON(core.PauseReason{Type: core.PauseReasonType(rng.Intn(4)),
			Function: str(), File: str(), Line: num(), Detail: str()})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for i := 0; i < 10000; i++ {
		op := str()
		if rng.Intn(2) == 0 {
			op = wireOps[rng.Intn(len(wireOps))]
		}
		req := &Request{ID: rng.Uint64() >> rng.Intn(64), Op: op, Kind: str(), Path: str(),
			File: str(), Line: num(), Func: str(), Var: str(), MaxDepth: num(),
			Addr: uint64(num()), Size: num(), Cond: str(), Ignore: num(),
			OneShot: rng.Intn(2) == 0, Step: num(), WantState: rng.Intn(2) == 0}
		if rng.Intn(8) == 0 {
			req.Load = &LoadSpec{Args: []string{str()}, Source: str(), Budgets: core.Budgets{MaxSteps: int64(num())}}
		}
		resp := &Response{ID: rng.Uint64() >> rng.Intn(64)}
		if rng.Intn(4) != 0 {
			resp.Status = &Status{Exited: rng.Intn(2) == 0, ExitCode: num(), File: str(), Line: num(),
				LastLine: num(), Stdout: str(), Stderr: str(), TTPos: num(), TTLen: num()}
			if rng.Intn(3) != 0 {
				resp.Status.Reason = reason()
			}
		}
		switch rng.Intn(8) {
		case 0:
			resp.Err = &core.ErrorJSON{Op: str(), Msg: str(), Lost: []string{str()}}
		case 1:
			resp.Session, resp.Kind, resp.Caps, resp.HBNs = rng.Uint64(), str(), &core.CapabilitySet{State: true}, int64(num())
		case 2:
			resp.Lines, resp.Stats = []string{str(), str()}, json.RawMessage(raws[rng.Intn(len(raws))])
		case 3:
			resp.Regs, resp.Mem, resp.Heap = map[string]uint64{str(): 1}, []byte(str()), map[string]uint64{"16": 8}
		}
		for _, v := range []any{req, resp} {
			js, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var enc []byte
			switch v := v.(type) {
			case *Request:
				enc, err = appendRequest(nil, v)
				var a, b Request
				checkDecode(t, js, unmarshalRequest(js, &a), json.Unmarshal(js, &b), &a, &b)
			case *Response:
				enc, err = appendResponse(nil, v)
				var a, b Response
				checkDecode(t, js, unmarshalResponse(js, &a), json.Unmarshal(js, &b), &a, &b)
			}
			if err != nil || !bytes.Equal(enc, js) {
				t.Fatalf("%+v encodes to %q (%v), json.Marshal to %q", v, enc, err, js)
			}
		}
	}
}

// TestEnvelopeHotPathIsOnePass pins which golden bodies the codec reads
// itself: every request but a load, and every response carrying only an
// id and a Status. The rest go to encoding/json.
func TestEnvelopeHotPathIsOnePass(t *testing.T) {
	slow := map[string]bool{"load": true, "hello-reply": true, "load-reply": true,
		"error-reply": true, "last-change-reply": true, "segments-reply": true}
	for _, g := range goldenFrames(t) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, g.v, g.tc); err != nil {
			t.Fatal(err)
		}
		_, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		_, body, _, err := cutPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		d := envDecoder{b: body}
		var fast bool
		if _, ok := g.v.(*Request); ok {
			fast = d.request(&Request{})
		} else {
			fast = d.response(&Response{})
		}
		if fast == slow[g.name] {
			t.Errorf("%s: read in one pass = %v, want %v", g.name, fast, !slow[g.name])
		}
	}
}
