package mi

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRecord checks that the MI record parser never panics, that it
// accepts exactly the lines the parser it replaced (refParseRecord)
// accepts and reads each into the same record, field by field, each tuple
// and list in a slice of exactly its length, and that
// parsing is stable under re-printing: for any line the parser accepts,
// the reference printer (refPrint) produces a line that parses back to the
// same record (and printing that is a fixed point). C-strings are quoted
// and unquoted byte by byte, so this holds for bytes that are not UTF-8
// too. A raw value parses as a string and prints back as a c-string.
// FuzzServerReply holds the server's own lines to the same printer.
func FuzzParseRecord(f *testing.F) {
	seeds := []string{
		"(gdb)",
		"(gdb) ",
		"^done",
		"7^done,value=\"42\"",
		"^error,msg=\"no symbol \\\"x\\\"\"",
		"*stopped,reason=\"breakpoint-hit\",frame={func=\"main\",line=\"3\"}",
		"=breakpoint-created,bkpt={number=\"1\"}",
		"~\"hello\\nworld\"",
		"@\"inferior output\"",
		"&\"log stream\"",
		"^done,stack=[frame={level=\"0\"},frame={level=\"1\"}]",
		"^done,empty={},list=[]",
		"^done,a=\"1\",b=[\"x\",{c=\"2\"}]",
		"123^running",
		"^done,weird\ttab=\"v\"",
		"^done,bad=\"\xff\xfe\"",
		"2^done,state=#7:{\"a\":1},version=\"3\"",
		"^done,l=[#0:,#2:\"]],t={r=#3:a,b}",
		"^done,state=#9:{\"a\":1}",
		"^done,state=#99:{}",
		"^done,state=#x1:{}",
		"^done,state=#:{}",
		"^done,state=#99999999999999999999:{}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := ParseRecord(line)
		ref, refErr := refParseRecord(line)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: ParseRecord error %v, reference parser error %v", line, err, refErr)
		}
		if err != nil {
			return // rejecting is fine; not crashing is the property
		}
		if !reflect.DeepEqual(rec, ref) {
			t.Fatalf("%q: ParseRecord read %#v, the reference parser %#v", line, rec, ref)
		}
		if !exactlySized(rec.Results) {
			t.Fatalf("%q: a tuple or list has room to spare: %#v", line, rec)
		}
		p1 := refPrint(rec)
		rec2, err := ParseRecord(p1)
		if err != nil {
			t.Fatalf("printed record does not re-parse: %q -> %q: %v", line, p1, err)
		}
		if p2 := refPrint(rec2); p2 != p1 {
			t.Fatalf("print not a fixed point: %q -> %q -> %q", line, p1, p2)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip changed record: %q: %#v != %#v", line, rec, rec2)
		}
	})
}

// exactlySized reports whether every tuple and list in v has the
// capacity of its length.
func exactlySized(v Value) bool {
	switch v := v.(type) {
	case Tuple:
		if cap(v) != len(v) {
			return false
		}
		for _, r := range v {
			if !exactlySized(r.Val) {
				return false
			}
		}
	case List:
		if cap(v) != len(v) {
			return false
		}
		for _, e := range v {
			if !exactlySized(e) {
				return false
			}
		}
	}
	return true
}

// FuzzSplitCommand checks the command tokenizer never panics, that it
// splits every line as the splitter it replaced (refSplitCommand) does,
// and that accepted commands survive a quote-and-resplit round trip.
func FuzzSplitCommand(f *testing.F) {
	seeds := []string{
		"-exec-run",
		"7-break-insert 12",
		"-file-exec-and-symbols \"a b.mobj\"",
		"-data-evaluate-expression \"x + 1\"",
		"  42-exec-next  ",
		"-et-inspect",
		"-break-insert -f \"fn\" 3",
		"-x \"\" trailing",
		"-x \"\xff \\\"\" \xfe",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		token, op, args, err := SplitCommand(line)
		rtoken, rop, rargs, rerr := refSplitCommand(line)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%q: SplitCommand error %v, reference splitter error %v", line, err, rerr)
		}
		if err != nil {
			return
		}
		if len(rargs) == 0 {
			rargs = nil
		}
		if token != rtoken || op != rop || !reflect.DeepEqual(args, rargs) {
			t.Fatalf("%q: SplitCommand split (%q,%q,%q), the reference splitter (%q,%q,%q)",
				line, token, op, args, rtoken, rop, rargs)
		}
		if !strings.HasPrefix(op, "-") {
			t.Fatalf("accepted op without '-': %q from %q", op, line)
		}
		for _, c := range token {
			if c < '0' || c > '9' {
				t.Fatalf("non-digit token %q from %q", token, line)
			}
		}
		// Rebuild the line with canonical quoting and re-split. Only
		// meaningful when the op itself needs no quoting: an op with
		// spaces cannot be round-tripped through MI's grammar.
		if QuoteArg(op) != op {
			return
		}
		parts := []string{token + op}
		for _, a := range args {
			parts = append(parts, QuoteArg(a))
		}
		rebuilt := strings.Join(parts, " ")
		token2, op2, args2, err := SplitCommand(rebuilt)
		if err != nil {
			t.Fatalf("rebuilt command rejected: %q -> %q: %v", line, rebuilt, err)
		}
		if token2 != token || op2 != op || !reflect.DeepEqual(args, args2) {
			t.Fatalf("round trip changed command: %q -> %q: (%q,%q,%q) != (%q,%q,%q)",
				line, rebuilt, token, op, args, token2, op2, args2)
		}
	})
}
