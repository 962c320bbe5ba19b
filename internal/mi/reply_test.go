package mi

import (
	"os"
	"strings"
	"sync"
	"testing"

	"easytracker/internal/isa"
	"easytracker/internal/minic"
)

// This file holds what the server sends to the reference printer
// (checkReply): every line parses, and refPrint prints the record it reads
// as the server's own bytes. With FuzzParseRecord's Parse(Print(r)) ≡ r
// on refPrint, the round trip holds for the server's replies too.

// replyProgC is FuzzServerReply's program: globals of each type a watch
// renders, a function with a return value, heap blocks and target output.
const replyProgC = `int g = 0;
double d = 0.5;
char c = 'a';
int* hp;
int bump(int x) {
    g = g + x;
    return g;
}
int main() {
    hp = (int*)malloc(2 * sizeof(int));
    for (int i = 0; i < 3; i++) {
        d = d * 2.0;
        c = c + 1;
        bump(i);
    }
    printf("g=%d \"q\"\t\\\n", g);
    free((char*)hp);
    return g;
}`

var replyProg = sync.OnceValues(func() (*isa.Program, error) {
	return minic.Compile("reply.c", replyProgC)
})

// maxFuzzCommands caps the command lines one FuzzServerReply input runs.
const maxFuzzCommands = 16

// FuzzServerReply runs the lines of its input as commands, at most
// maxFuzzCommands of them, on a server started on replyProgC, and checks
// every reply with checkReply. -file-exec-and-symbols, which reads the
// file a line names, is left out.
func FuzzServerReply(f *testing.F) {
	seeds := []string{
		"-list-features",
		"-et-segments",
		"7-exec-next\n8-et-inspect\n-stack-list-frames\n-data-list-register-values",
		"-break-watch g\n-exec-continue\n-exec-continue\n-et-inspect",
		"-break-watch d\n-exec-continue",
		"-break-watch c\n-exec-continue",
		"-break-watch hp\n-exec-continue",
		"-break-insert --exit bump\n-exec-continue\n-exec-continue",
		"-break-insert --event return --function bump\n-exec-continue",
		"-break-insert --function bump\n-exec-continue\n-exec-step\n-exec-finish",
		"-break-insert -t -c \"x == 2\" 6\n-exec-continue\n-break-delete 1",
		"-break-insert -i 1 --maxdepth 2 6\n-exec-continue",
		"-et-track-heap\n-exec-run\n-break-insert 17\n-exec-continue\n-et-heap-blocks",
		"-exec-continue\n-et-inspect\n-exec-next",
		"-data-read-memory 0 16\n-data-read-memory 0x10 x",
		"-data-disassemble bump\n-data-disassemble nosuch",
		"-et-budget 5\n-exec-continue\n-exec-interrupt",
		"-break-insert \"\xff \\\"q\\\"\"\n-break-insert -c \"\\t\" 6",
		"not a command\n12-nonsense \"a\\tb\" \r",
		"-gdb-exit",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	prog, err := replyProg()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, script string) {
		srv := NewServer(prog)
		checkReply(t, srv.run(SplitCommand("-exec-run")))
		for i, line := range strings.Split(script, "\n") {
			if i == maxFuzzCommands {
				break
			}
			if _, op, _, _ := SplitCommand(line); op == "-file-exec-and-symbols" {
				continue
			}
			checkReply(t, srv.run(SplitCommand(line)))
		}
	})
}

// maxReplyPauses caps the pauses TestServerRepliesReprint steps through
// in one program.
const maxReplyPauses = 16

// TestServerRepliesReprint runs every command the server prints results
// for on each program of internal/minic/testdata/lines.txtar, at each of
// its first maxReplyPauses pauses, and checks every reply with checkReply.
func TestServerRepliesReprint(t *testing.T) {
	data, err := os.ReadFile("../minic/testdata/lines.txtar")
	if err != nil {
		t.Fatal(err)
	}
	// Each program follows a "-- name --" line; the text before the first
	// is a comment.
	var names, srcs []string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), "-- "); ok && strings.HasSuffix(name, " --") {
			names = append(names, strings.TrimSuffix(name, " --"))
			srcs = append(srcs, "")
		} else if len(srcs) > 0 {
			srcs[len(srcs)-1] += line
		}
	}
	if len(names) == 0 {
		t.Fatal("lines.txtar holds no programs")
	}
	for i, name := range names {
		prog, err := minic.Compile(name, srcs[i])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		srv := NewServer(prog)
		run := func(line string) []Record {
			t.Helper()
			return checkReply(t, srv.run(SplitCommand(line)))
		}
		for _, line := range []string{"-list-features", "-et-track-heap", "-exec-run", "-et-segments"} {
			run(line)
		}
		for _, f := range prog.Funcs {
			if f.Line > 0 {
				run("-data-disassemble " + f.Name)
				if f.Name != "main" {
					run("-break-insert --exit " + f.Name)
				}
			}
		}
		for _, g := range prog.Globals {
			if !strings.HasPrefix(g.Name, "__") {
				run("-break-watch " + g.Name)
			}
		}
		for pause := 0; pause < maxReplyPauses; pause++ {
			for _, line := range []string{"-et-inspect", "-stack-list-frames", "-data-list-register-values",
				"-et-heap-blocks"} {
				run(line)
			}
			op := "-exec-step"
			if pause%2 == 1 {
				op = "-exec-continue"
			}
			recs := run(op)
			if stopped := recs[len(recs)-1]; stopped.Class == "stopped" && stopped.GetString("reason") == "exited" {
				break
			}
		}
		run("-gdb-exit")
	}
}
