package mi

import (
	"fmt"
	"strings"
	"testing"

	"easytracker/internal/minic"
)

// TestRawValue pins the length-prefixed raw value: it can sit anywhere a
// value can, its bytes are taken as they stand, delimiters and quotes
// included, and it parses as the string it carries.
func TestRawValue(t *testing.T) {
	rec := Record{Kind: ResultRecord, Token: "4", Class: "done", Results: Tuple{
		{Var: "state", Val: RawVal(`{"a":"x,y}]"}`)},
		{Var: "l", Val: List{RawVal(""), StringVal("s"), Tuple{{Var: "r", Val: RawVal(`"`)}}}},
	}}
	line := refPrint(rec)
	if want := `4^done,state=#13:{"a":"x,y}]"},l=[#0:,"s",{r=#1:"}]`; line != want {
		t.Fatalf("refPrint = %s, want %s", line, want)
	}
	back, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.GetString("state"); got != `{"a":"x,y}]"}` {
		t.Errorf("state = %q", got)
	}
	l, _ := back.Results.Get("l").(List)
	if len(l) != 3 || l[0] != StringVal("") || l[1] != StringVal("s") {
		t.Fatalf("l = %#v", l)
	}
	if r, _ := l[2].(Tuple); r.GetString("r") != `"` {
		t.Errorf("l[2] = %#v", l[2])
	}

	for _, bad := range []struct{ name, line string }{
		{"length past the end", `^done,state=#9:{"a":1}`},
		{"truncated", `^done,state=#7:{"a"`},
		{"non-numeric length", `^done,state=#x7:{"a":1}`},
		{"signed length", `^done,state=#+7:{"a":1}`},
		{"missing length", `^done,state=#:{}`},
		{"missing colon", `^done,state=#2{}`},
		{"overflowing length", `^done,state=#99999999999999999999:{}`},
		{"bytes after the value", `^done,state=#2:{}}`},
	} {
		if rec, err := ParseRecord(bad.line); err == nil {
			t.Errorf("%s: %s parsed as %#v", bad.name, bad.line, rec)
		}
	}
}

// TestCStringKeepsBytes checks that c-strings are quoted and unquoted byte
// by byte: bytes that are not UTF-8 cross unchanged, and valid UTF-8 is
// written as it always was.
func TestCStringKeepsBytes(t *testing.T) {
	for _, s := range []string{"\xffA\n", "\xc3\x28 \"q\" \\ \t\r", "é ok", ""} {
		line := refPrint(Record{Kind: TargetStreamRecord, Stream: s})
		back, err := ParseRecord(line)
		if err != nil || back.Stream != s {
			t.Errorf("%q printed as %q, parsed back as %q (%v)", s, line, back.Stream, err)
		}
	}
	if got, want := refPrint(Record{Kind: StreamRecord, Stream: "é \"x\"\n"}), `~"é \"x\"\n"`; got != want {
		t.Errorf("refPrint = %s, want %s", got, want)
	}
	if got, want := QuoteArg("\xff a"), "\"\xff a\""; got != want {
		t.Errorf("QuoteArg = %q, want %q", got, want)
	}
}

// TestResultNames checks that result names follow MI's variable grammar, so
// every record the parser accepts prints back as one it accepts.
func TestResultNames(t *testing.T) {
	if _, err := ParseRecord(`^done,exit-code="0",asm_insns=[],Reg2="x"`); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{`*,00=[}={}]`, `^done,="x"`, `^done,a b="x"`, `^done,{x}="1"`} {
		if rec, err := ParseRecord(line); err == nil {
			t.Errorf("%s parsed as %#v", line, rec)
		}
	}
}

// cutInspectReplies returns a real -et-inspect reply cut at every byte from
// its state result up to the end of its raw value.
func cutInspectReplies(t *testing.T) []string {
	t.Helper()
	prog, err := minic.Compile("prog.c", miFibC)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(prog)
	for _, cmd := range []string{"-exec-run", "-break-insert 3", "-exec-continue"} {
		if recs := execLine(t, srv, cmd); recs[len(recs)-1].Class == "error" {
			t.Fatalf("%s: %s", cmd, refPrint(recs[len(recs)-1]))
		}
	}
	recs := execLine(t, srv, "7-et-inspect")
	line := refPrint(recs[len(recs)-1])
	rec, err := ParseRecord(line)
	state := rec.GetString("state")
	if err != nil || !strings.Contains(state, `"fib"`) {
		t.Fatalf("-et-inspect reply %.80s: state %.40q, %v", line, state, err)
	}
	start := strings.Index(line, "state=")
	end := strings.Index(line, state) + len(state)
	var cuts []string
	for i := start; i < end; i++ {
		cuts = append(cuts, line[:i])
	}
	return cuts
}

// TestInspectReplyCutInsideState cuts a real -et-inspect reply at every byte
// up to the end of its raw value. No cut line may parse, so a truncated
// State never reaches the decoder.
func TestInspectReplyCutInsideState(t *testing.T) {
	for _, cut := range cutInspectReplies(t) {
		if rec, err := ParseRecord(cut); err == nil {
			t.Fatalf("reply cut at byte %d parsed: state %.40q", len(cut), rec.GetString("state"))
		}
	}
}

// TestParseErrorQuotesBoundedPrefix: the error of a cut -et-inspect reply
// quotes at most maxErrQuote bytes of the line, with the line's length,
// however much of the State the line carried.
func TestParseErrorQuotesBoundedPrefix(t *testing.T) {
	cuts := cutInspectReplies(t)
	if n := len(cuts[len(cuts)-1]); n < 4*maxErrQuote {
		t.Fatalf("longest cut reply is %d bytes: too short to test the bound", n)
	}
	bound := len(fmt.Sprintf("%q", strings.Repeat(`"`, maxErrQuote))) + 100
	for _, cut := range cuts {
		_, err := ParseRecord(cut)
		if err == nil {
			t.Fatalf("reply cut at byte %d parsed", len(cut))
		}
		msg := err.Error()
		if len(msg) > bound {
			t.Fatalf("error for a %d-byte cut is %d bytes, over %d: %.200s", len(cut), len(msg), bound, msg)
		}
		if rest := len(cut) - 1; rest > maxErrQuote && !strings.Contains(msg, fmt.Sprintf("(%d bytes)", rest)) {
			t.Fatalf("error for a %d-byte cut does not give the line's length: %s", len(cut), msg)
		}
	}
}
