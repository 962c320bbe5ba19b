package easytracker_test

import (
	"easytracker"

	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"easytracker/internal/gdbtracker"
	"easytracker/internal/mi"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildTools compiles every cmd/ binary once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "et-bin-*")
		if err != nil {
			buildErr = err
			return
		}
		binDir = dir
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

func bin(t *testing.T, name string) string {
	return filepath.Join(buildTools(t), name)
}

// run executes a tool and returns combined output and exit code.
func run(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin(t, name), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out)
	}
	return string(out), code
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMinipyCLI(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "hello.py", "print(\"hi\", 1 + 1)\nexit(3)\n")
	out, code := run(t, "minipy", prog)
	if out != "hi 2\n" || code != 3 {
		t.Errorf("out=%q code=%d", out, code)
	}
	// argv passing.
	prog2 := writeFile(t, dir, "args.py", "print(argv)\n")
	out, code = run(t, "minipy", prog2, "a", "b")
	if out != "['a', 'b']\n" || code != 0 {
		t.Errorf("out=%q code=%d", out, code)
	}
	// Syntax errors exit 2.
	bad := writeFile(t, dir, "bad.py", "def f(:\n")
	_, code = run(t, "minipy", bad)
	if code != 2 {
		t.Errorf("bad program exit = %d", code)
	}
}

func TestMiniccCLI(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.c", `int main() {
    printf("answer %d\n", 6 * 7);
    return 5;
}`)
	out, code := run(t, "minicc", "run", prog)
	if out != "answer 42\n" || code != 5 {
		t.Errorf("run: out=%q code=%d", out, code)
	}
	// disasm shows functions and lines.
	out, code = run(t, "minicc", "disasm", prog)
	if code != 0 || !strings.Contains(out, "main:") || !strings.Contains(out, "ret") {
		t.Errorf("disasm: code=%d out=%.200s", code, out)
	}
	// build emits a loadable image.
	mobj := filepath.Join(dir, "p.mobj")
	out, code = run(t, "minicc", "build", prog, "-o", mobj)
	if code != 0 || !strings.Contains(out, "wrote") {
		t.Fatalf("build: code=%d out=%q", code, out)
	}
	if _, err := os.Stat(mobj); err != nil {
		t.Fatal(err)
	}
	// The image runs under minigdb (below).
	t.Run("subprocess-minigdb", func(t *testing.T) {
		testMinigdbSubprocess(t, mobj)
	})
}

// testMinigdbSubprocess drives the real minigdb binary over its stdio — the
// paper's Fig. 4 with genuine process separation.
func testMinigdbSubprocess(t *testing.T, progPath string) {
	cmd := exec.Command(bin(t, "minigdb"), progPath)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	conn := mi.NewStdioConn(stdout, stdin, nil)
	// The server greets with a prompt.
	if line, err := conn.Recv(); err != nil || line != "(gdb)" {
		t.Fatalf("greeting = %q, %v", line, err)
	}
	cl := mi.NewClient(conn)
	resp, err := cl.Send("-exec-run")
	if err != nil {
		t.Fatal(err)
	}
	stopped, ok := resp.Stopped()
	if !ok || stopped.GetString("reason") != "entry" {
		t.Fatalf("entry: %v", resp.Result)
	}
	resp, err = cl.Send("-exec-continue")
	if err != nil {
		t.Fatal(err)
	}
	stopped, _ = resp.Stopped()
	if stopped.GetString("reason") != "exited" || stopped.GetString("exit-code") != "5" {
		t.Errorf("exit: %v", stopped)
	}
	if out := cl.TakeOutput(); out != "answer 42\n" {
		t.Errorf("inferior output over subprocess pipe = %q", out)
	}
	if _, err := cl.Send("-gdb-exit"); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
}

func TestEtStackheapCLI(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.py", "xs = [1, 2]\nys = xs\nprint(len(ys))\n")
	outDir := filepath.Join(dir, "imgs")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "et-stackheap", "-out", outDir, prog)
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	svgs, _ := filepath.Glob(filepath.Join(outDir, "*.svg"))
	if len(svgs) != 3 {
		t.Errorf("svg count = %d", len(svgs))
	}
	data, err := os.ReadFile(svgs[0])
	if err != nil || !strings.HasPrefix(string(data), "<svg") {
		t.Errorf("first svg: %v %.40s", err, data)
	}
}

func TestEtRecvizCLI(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "fact.py", `def fact(n):
    if n <= 1:
        return 1
    return n * fact(n - 1)

print(fact(4))
`)
	out, code := run(t, "et-recviz", "-out", dir, "-args", "n", prog, "fact")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	dots, _ := filepath.Glob(filepath.Join(dir, "rec-*.dot"))
	if len(dots) == 0 {
		t.Fatal("no dot files")
	}
	data, _ := os.ReadFile(dots[len(dots)-1])
	if !strings.Contains(string(data), "fact(4)") {
		t.Errorf("final tree missing root label:\n%s", data)
	}
}

func TestEtInvariantCLI(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "sort.py", `def srt(a):
    i = 1
    while i < len(a):
        j = i
        while j > 0 and a[j - 1] > a[j]:
            a[j - 1], a[j] = a[j], a[j - 1]
            j = j - 1
        i = i + 1

data = [3, 1, 2]
srt(data)
print(data)
`)
	out, code := run(t, "et-invariant", "-out", dir, prog)
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	svgs, _ := filepath.Glob(filepath.Join(dir, "array-*.svg"))
	if len(svgs) == 0 {
		t.Error("no array views written")
	}
}

func TestEtMemviewCLI(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "m.s", `    .data
v: .word 7
    .text
    .global main
main:
    la t0, v
    ld t1, 0(t0)
    li a0, 0
    li a7, 0
    ecall
`)
	out, code := run(t, "et-memview", "-words", "2", prog)
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	for _, want := range []string{"registers:", "memory (data", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestEtGameCLI(t *testing.T) {
	// Buggy level fails with hints.
	out, code := run(t, "et-game")
	if code != 1 {
		t.Fatalf("buggy level code = %d\n%s", code, out)
	}
	if !strings.Contains(out, "hint") || !strings.Contains(out, "check_key") {
		t.Errorf("hints missing:\n%s", out)
	}
	// Dump the level, apply the fix, win.
	src, code := run(t, "et-game", "-dump-level")
	if code != 0 || !strings.Contains(src, "BUG") {
		t.Fatalf("dump failed: %d", code)
	}
	fixed := strings.Replace(src, "int found = 1; /* BUG: should set has_key = 1; */",
		"has_key = 1;", 1)
	dir := t.TempDir()
	path := writeFile(t, dir, "fix.c", fixed)
	out, code = run(t, "et-game", path)
	if code != 0 || !strings.Contains(out, "LEVEL COMPLETE") {
		t.Errorf("fixed level: code=%d\n%s", code, out)
	}
}

func TestEtTraceCLI(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "f.py", `def f(n):
    return n + 1

print(f(1) + f(2))
`)
	trace := filepath.Join(dir, "f.trace")
	out, code := run(t, "et-trace", "record", "-track", "f", "-o", trace, prog)
	if code != 0 || !strings.Contains(out, "recorded") {
		t.Fatalf("record: code=%d out=%s", code, out)
	}
	out, code = run(t, "et-trace", "stats", trace)
	if code != 0 || !strings.Contains(out, "steps:") || !strings.Contains(out, "call") {
		t.Errorf("stats: code=%d out=%s", code, out)
	}
	html := filepath.Join(dir, "f.html")
	out, code = run(t, "et-trace", "html", "-o", html, trace)
	if code != 0 {
		t.Fatalf("html: code=%d out=%s", code, out)
	}
	page, err := os.ReadFile(html)
	if err != nil || !strings.Contains(string(page), "Forward") {
		t.Errorf("html page: %v", err)
	}
	out, code = run(t, "et-trace", "replay", trace)
	if code != 0 || !strings.Contains(out, "replay finished") {
		t.Errorf("replay: code=%d out=%.200s", code, out)
	}
}

func TestEtTablesCLI(t *testing.T) {
	out, code := run(t, "et-tables", "-verify")
	if code != 0 {
		t.Fatalf("verify failed:\n%s", out)
	}
	for _, want := range []string{"Table I", "Table II", "Table III", "EasyTracker", "ok   language-agnostic"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestSubprocessTrackerEndToEnd runs the full EasyTracker API against a
// MiniGDB child process — the paper's Fig. 4 with genuine process
// separation at the tracker level.
func TestSubprocessTrackerEndToEnd(t *testing.T) {
	tr := gdbtracker.NewSubprocess(bin(t, "minigdb"))
	src := `int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    printf("%d\n", fib(5));
    return 0;
}`
	var out strings.Builder
	if err := tr.LoadProgram("fib.c",
		easytracker.WithSource(src), easytracker.WithStdout(&out)); err != nil {
		t.Fatal(err)
	}
	defer tr.Terminate()
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.TrackFunction("fib"); err != nil {
		t.Fatal(err)
	}
	calls := 0
	for {
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		if tr.PauseReason().Type == easytracker.PauseCall {
			calls++
			fr, err := tr.CurrentFrame()
			if err != nil {
				t.Fatal(err)
			}
			if fr.Name != "fib" {
				t.Errorf("frame = %s", fr.Name)
			}
		}
	}
	if calls != 15 { // fib(5) makes 15 calls
		t.Errorf("calls over subprocess = %d, want 15", calls)
	}
	if out.String() != "5\n" {
		t.Errorf("output = %q", out.String())
	}
}
