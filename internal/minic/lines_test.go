package minic

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"easytracker/internal/isa"
)

// lineProgram is one program of testdata/lines.txtar.
type lineProgram struct{ name, src string }

// linePrograms reads testdata/lines.txtar: each program follows a
// "-- name --" line, and the text before the first one is a comment.
func linePrograms(t *testing.T) []lineProgram {
	t.Helper()
	data, err := os.ReadFile("testdata/lines.txtar")
	if err != nil {
		t.Fatal(err)
	}
	var ps []lineProgram
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), "-- "); ok && strings.HasSuffix(name, " --") {
			ps = append(ps, lineProgram{name: strings.TrimSuffix(name, " --")})
		} else if len(ps) > 0 {
			ps[len(ps)-1].src += line
		}
	}
	if len(ps) == 0 {
		t.Fatal("testdata/lines.txtar holds no programs")
	}
	return ps
}

// lineDigest hashes every answer the line table gives a debugger: LineAt
// for each text PC, then PCsForLine for each line from 0 to one past the
// largest.
func lineDigest(p *isa.Program) string {
	h := sha256.New()
	top := 0
	for i := range p.Instrs {
		pc := isa.IndexToPC(i)
		line := p.LineAt(pc)
		top = max(top, line)
		fmt.Fprintf(h, "%#x %d\n", pc, line)
	}
	for line := 0; line <= top+1; line++ {
		fmt.Fprintf(h, "%d: %x\n", line, p.PCsForLine(line))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLineTableGolden holds every program's LineAt and PCsForLine answers
// to testdata/lines.digests, written from the per-instruction line tables
// the compiler emitted before it emitted one entry per run of one line.
func TestLineTableGolden(t *testing.T) {
	want := readDigests(t, "testdata/lines.digests")
	ps := linePrograms(t)
	if len(want) != len(ps) {
		t.Fatalf("%d digests for %d programs", len(want), len(ps))
	}
	for _, lp := range ps {
		p, err := Compile(lp.name, lp.src)
		if err != nil {
			t.Fatalf("%s: %v", lp.name, err)
		}
		if got := lineDigest(p); got != want[lp.name] {
			t.Errorf("%s: line table answers digest to %s, want %s", lp.name, got, want[lp.name])
		}
	}
}

// readDigests reads a file of "name digest" lines.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	return want
}

// TestProgramJSONGolden holds the JSON of every program Compile builds to
// testdata/programs.digests: instructions, data, functions, globals with
// their types, struct layouts and line table.
func TestProgramJSONGolden(t *testing.T) {
	want := readDigests(t, "testdata/programs.digests")
	ps := linePrograms(t)
	if len(want) != len(ps) {
		t.Fatalf("%d digests for %d programs", len(want), len(ps))
	}
	for _, lp := range ps {
		p, err := Compile(lp.name, lp.src)
		if err != nil {
			t.Fatalf("%s: %v", lp.name, err)
		}
		js, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", lp.name, err)
		}
		sum := sha256.Sum256(js)
		if got := hex.EncodeToString(sum[:]); got != want[lp.name] {
			t.Errorf("%s: program JSON digests to %s, want %s", lp.name, got, want[lp.name])
		}
	}
}

// TestLineTableRuns checks that the compiler emits one line entry per run
// of one line: PCs strictly increase from TextBase, adjacent entries differ
// in line, and there are as many entries as runs of LineAt over the text.
func TestLineTableRuns(t *testing.T) {
	for _, lp := range linePrograms(t) {
		p, err := Compile(lp.name, lp.src)
		if err != nil {
			t.Fatalf("%s: %v", lp.name, err)
		}
		if err := lineRunsErr(p); err != nil {
			t.Errorf("%s: %v", lp.name, err)
		}
	}
}

// lineRunsErr reports how p's line table strays from one entry per run.
func lineRunsErr(p *isa.Program) error {
	if len(p.Lines) == 0 || p.Lines[0].PC != isa.TextBase {
		return fmt.Errorf("line table does not start at TextBase: %v", p.Lines)
	}
	for i := 1; i < len(p.Lines); i++ {
		prev, e := p.Lines[i-1], p.Lines[i]
		if e.PC <= prev.PC || e.Line == prev.Line || e.PC >= isa.IndexToPC(len(p.Instrs)) {
			return fmt.Errorf("entry %d %+v after %+v", i, e, prev)
		}
	}
	runs := 0
	for i := range p.Instrs {
		if i == 0 || p.LineAt(isa.IndexToPC(i)) != p.LineAt(isa.IndexToPC(i-1)) {
			runs++
		}
	}
	if runs != len(p.Lines) {
		return fmt.Errorf("%d entries for %d runs", len(p.Lines), runs)
	}
	return nil
}
