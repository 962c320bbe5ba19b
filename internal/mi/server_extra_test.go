package mi

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"easytracker/internal/minic"
)

func TestTemporaryBreakpoint(t *testing.T) {
	src := `int main() {
    for (int i = 0; i < 3; i++) {
        putchar('x');
    }
    return 0;
}`
	cl := startServer(t, src)
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send("-break-insert", "-t", "3"); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Send("-exec-continue")
	if err != nil {
		t.Fatal(err)
	}
	stopped, _ := resp.Stopped()
	if stopped.GetString("reason") != "breakpoint-hit" {
		t.Fatalf("first stop = %s", refPrint(stopped))
	}
	// Temporary: the second continue runs to completion.
	resp, err = cl.Send("-exec-continue")
	if err != nil {
		t.Fatal(err)
	}
	stopped, _ = resp.Stopped()
	if stopped.GetString("reason") != "exited" {
		t.Errorf("after temp bp: %s", refPrint(stopped))
	}
}

func TestRawAddressWatch(t *testing.T) {
	src := `int g = 0;
int main() {
    g = 1;
    g = 2;
    return 0;
}`
	prog, err := minic.Compile("prog.c", src)
	if err != nil {
		t.Fatal(err)
	}
	addr := prog.GlobalByName("g").Offset

	cl := startServer(t, src)
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send("-break-watch", "*"+itoa64(addr), "8"); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Send("-exec-continue")
	if err != nil {
		t.Fatal(err)
	}
	stopped, _ := resp.Stopped()
	if stopped.GetString("reason") != "watchpoint-trigger" {
		t.Fatalf("stop = %s", refPrint(stopped))
	}
	val, _ := stopped.Results.Get("value").(Tuple)
	if val.GetString("new") != "1" {
		t.Errorf("new = %s", val.GetString("new"))
	}
}

func itoa64(v int64) string { return strconv.FormatInt(v, 10) }

func TestLocalWatchOverMI(t *testing.T) {
	src := `void work() {
    int local = 1;
    local = 2;
    local = 3;
    return;
}
int main() {
    work();
    return 0;
}`
	cl := startServer(t, src)
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	// Reach work()'s frame first (locals need a live activation).
	if _, err := cl.Send("-break-insert", "--function", "work"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send("-exec-continue"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send("-break-watch", "work:local"); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for {
		resp, err := cl.Send("-exec-continue")
		if err != nil {
			t.Fatal(err)
		}
		stopped, _ := resp.Stopped()
		if stopped.GetString("reason") == "exited" {
			break
		}
		if stopped.GetString("reason") == "watchpoint-trigger" {
			hits++
		}
	}
	// The entry breakpoint fires before `local = 1` executes, so all
	// three stores trigger the frame-relative watch.
	if hits != 3 {
		t.Errorf("local watch hits = %d, want 3", hits)
	}
}

func TestListFeatures(t *testing.T) {
	cl := startServer(t, miFibC)
	resp, err := cl.Send("-list-features")
	if err != nil {
		t.Fatal(err)
	}
	feats, _ := resp.Result.Results.Get("features").(List)
	found := false
	for _, f := range feats {
		if f == StringVal("et-maxdepth") {
			found = true
		}
	}
	if !found {
		t.Errorf("features = %v", feats)
	}
}

func TestFileExecAndSymbols(t *testing.T) {
	prog, err := minic.Compile("img.c", "int main() { printf(\"mobj!\\n\"); return 4; }")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "img.mobj")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cl := NewClient(Connect(NewServer(nil))) // no program until the client loads one
	defer cl.Close()

	// Commands before load fail cleanly.
	if _, err := cl.Send("-exec-run"); err == nil {
		t.Error("run before load succeeded")
	}
	if _, err := cl.Send("-file-exec-and-symbols", path); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Send("-exec-continue")
	if err != nil {
		t.Fatal(err)
	}
	stopped, _ := resp.Stopped()
	if stopped.GetString("exit-code") != "4" {
		t.Errorf("exit = %s", stopped.GetString("exit-code"))
	}
	if out := cl.TakeOutput(); out != "mobj!\n" {
		t.Errorf("output = %q", out)
	}
	// Corrupt image is rejected.
	bad := filepath.Join(t.TempDir(), "bad.mobj")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := cl.Send("-file-exec-and-symbols", bad); err == nil {
		t.Error("corrupt image accepted")
	}
}

func TestStackFramesFields(t *testing.T) {
	cl := startServer(t, miFibC)
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send("-break-insert", "--function", "fib"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send("-exec-continue"); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Send("-stack-list-frames")
	if err != nil {
		t.Fatal(err)
	}
	stack, _ := resp.Result.Results.Get("stack").(List)
	if len(stack) != 2 {
		t.Fatalf("stack = %v", refPrint(resp.Result))
	}
	top, _ := stack[0].(Tuple)
	if top.GetString("level") != "0" || top.GetString("func") != "fib" {
		t.Errorf("top = %v", top)
	}
	if top.GetString("addr") == "" || top.GetString("fp") == "" {
		t.Errorf("missing addr/fp in %v", top)
	}
}

func TestServerRejectsMalformedCommands(t *testing.T) {
	prog, err := minic.Compile("p.c", "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(prog)
	recs := execLine(t, srv, "not a command")
	if len(recs) != 1 || recs[0].Class != "error" {
		t.Errorf("records = %v", recs)
	}
	recs = execLine(t, srv, "-break-insert")
	if recs[len(recs)-1].Class != "error" {
		t.Errorf("no-arg break-insert: %v", recs)
	}
}

// execLine runs one command line on srv as Serve does and returns its
// reply's records, the prompt left out, each checked to print back as its
// line (checkReply).
func execLine(t testing.TB, srv *Server, line string) []Record {
	t.Helper()
	return checkReply(t, srv.run(SplitCommand(line)))
}
