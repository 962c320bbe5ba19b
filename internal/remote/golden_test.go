package remote

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"easytracker/internal/core"
)

// goldenStateDoc is the State the golden State-tail reply carries: two
// frames, a shared value, a global and strings the escaper must rewrite.
const goldenStateDoc = `{"frames":[{"name":"fact","depth":1,"file":"prog.py","line":3,"vars":[{"name":"n","value":{"id":1,"kind":"REF","location":"STACK","ltype":"ref","ref":{"id":2,"kind":"PRIMITIVE","location":"HEAP","ltype":"int","prim":{"t":"int","v":"7"}}}}]},{"name":"<module>","depth":0,"file":"prog.py","line":9,"vars":[{"name":"s","value":{"id":3,"kind":"REF","location":"STACK","ltype":"ref","ref":{"id":4,"kind":"PRIMITIVE","location":"HEAP","ltype":"str","prim":{"t":"str","v":"a & b\n\"é\""}}}}]}],"globals":[{"name":"n","value":{"id":5,"kind":"REF","location":"STACK","ltype":"ref","ref":{"backref":2}}}],"reason":{"type":"STEP","file":"prog.py","line":3}}`

// goldenFrame is one frame of the golden set: the value a peer writes and
// the trace context it stamps.
type goldenFrame struct {
	name string
	v    any
	tc   *TraceContext
}

// goldenFrames are the frames in testdata/frames, one of each kind a
// session exchanges: the handshake, a load, control requests with and
// without want_state, their replies with and without a State tail, an
// error reply, the out-of-band ops and the inspection replies whose
// payloads nest core types.
func goldenFrames(tb testing.TB) []goldenFrame {
	tb.Helper()
	tc := &TraceContext{TraceID: 0x0123456789abcdef, SpanID: 0xfedcba9876543210}
	reason := func(r core.PauseReason) json.RawMessage {
		raw, err := core.EncodePauseReasonJSON(r)
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	var val core.Value
	if err := val.UnmarshalJSON([]byte(`{"id":1,"kind":"PRIMITIVE","location":"HEAP","ltype":"int","prim":{"t":"int","v":"42"}}`)); err != nil {
		tb.Fatal(err)
	}
	var st core.State
	if err := st.UnmarshalJSON([]byte(goldenStateDoc)); err != nil {
		tb.Fatal(err)
	}
	state, err := st.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	stepped := &Status{Reason: reason(core.PauseReason{Type: core.PauseStep, File: "prog.py", Line: 3}),
		File: "prog.py", Line: 3, LastLine: 2, Stdout: "<ok> & done\n", TTPos: 4, TTLen: 6}
	return []goldenFrame{
		{"hello", &Request{ID: 1, Op: OpHello, Kind: "minipy"}, nil},
		{"hello-reply", &Response{ID: 1, Session: 7, Kind: "minipy",
			Caps: &core.CapabilitySet{State: true, Stats: true, Spans: true, Interrupt: true,
				ConditionalBreak: true, TimeTravel: true, ReverseWatch: true},
			HBNs: int64(2 * time.Second), HBMiss: 3}, nil},
		{"load", &Request{ID: 2, Op: OpLoad, Path: "prog.py", Load: &LoadSpec{
			Args: []string{"-v"}, Source: "x = 1\nif x < 2 and x > 0:\n    print(\"<ok> & done\")\n",
			Stdin: "in\n", CmdNs: int64(time.Second), Budgets: core.Budgets{MaxSteps: 1000},
			Obs: true, ObsEvents: 64, WantStdout: true, Recording: true, RecordInterval: 8}}, tc},
		{"load-reply", &Response{ID: 2, Caps: &core.CapabilitySet{State: true, TimeTravel: true},
			Status: &Status{Reason: reason(core.PauseReason{}), File: "prog.py", LastLine: 3}}, tc},
		{"start", &Request{ID: 3, Op: OpStart}, tc},
		{"break-line", &Request{ID: 4, Op: OpBreakLine, File: "prog.py", Line: 3, MaxDepth: 2,
			Cond: "x > 0 && x < 9", Ignore: 1, OneShot: true}, tc},
		{"step", &Request{ID: 5, Op: OpStep}, tc},
		{"step-reply", &Response{ID: 5, Status: stepped}, tc},
		{"step-want-state", &Request{ID: 6, Op: OpStep, WantState: true}, tc},
		{"step-reply-state", &Response{ID: 6, Status: stepped, State: state}, tc},
		{"error-reply", &Response{ID: 7, Err: core.EncodeError(core.WrapErr("minipy", "Step", "prog.py", 3, core.ErrExited)),
			Status: &Status{Reason: reason(core.PauseReason{Type: core.PauseExited, ExitCode: 1}),
				Exited: true, ExitCode: 1, File: "prog.py", Line: 3, LastLine: 3, Stderr: "Traceback\n"}}, tc},
		{"ping", &Request{ID: 8, Op: OpPing}, nil},
		{"ping-reply", &Response{ID: 8}, nil},
		{"interrupt", &Request{ID: 9, Op: OpInterrupt}, nil},
		{"last-change", &Request{ID: 10, Op: OpLastChange, Var: "fact:n"}, tc},
		{"last-change-reply", &Response{ID: 10, Change: &core.VarChange{Step: 4, Var: "fact:n", Func: "fact", Val: &val},
			Status: stepped}, tc},
		{"segments-reply", &Response{ID: 11, Segs: []core.Segment{{Name: "data", Start: 0x600000, Size: 4096},
			{Name: "stack", Start: 0x700000, Size: 1 << 20}}, Status: stepped}, tc},
	}
}

// TestGoldenFrames writes every golden frame and compares it byte for byte
// with the frame the same value produced when the golden set was recorded
// (with encoding/json writing the body, and the server marshalling the
// State before framing it), then reads the file back into the value that
// wrote it through the envelope decoder.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames(t) {
		t.Run(g.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "frames", g.name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := writeFrame(&buf, g.v, g.tc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("frame differs from the golden one:\n got %q\nwant %q", buf.Bytes(), want)
			}
			if resp, ok := g.v.(*Response); ok && resp.State != nil {
				// The server's path: the State appended by its codec.
				var st core.State
				if err := st.UnmarshalJSON(resp.State); err != nil {
					t.Fatal(err)
				}
				bare := *resp
				bare.State = nil
				f, err := encodeFrame(&bare, g.tc, &st)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(f.b, want) {
					t.Fatalf("frame with an appended State differs from the golden one:\n got %q\nwant %q", f.b, want)
				}
				f.release()
			}
			_, payload, err := readFrame(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			ctx, body, tail, err := cutPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			if tc := traceContext(ctx); !reflect.DeepEqual(tc, g.tc) {
				t.Fatalf("trace context = %+v, want %+v", tc, g.tc)
			}
			var got any
			switch g.v.(type) {
			case *Request:
				var req Request
				err, got = unmarshalRequest(body, &req), &req
			case *Response:
				var resp Response
				err, got = unmarshalResponse(body, &resp), &resp
				resp.State = tail
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, g.v) {
				t.Fatalf("decoded %+v, want %+v", got, g.v)
			}
		})
	}
}
