package pytracker

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/minipy"
)

// The budgets of FuzzProbeSkip's runs: a recording session converts state
// at every line, so fuzzed programs run short.
const (
	fuzzSteps    = 2000
	fuzzSeqElems = 1000
)

// probeTranscript starts src, arms a watch on each of ids and a line
// breakpoint at line at the entry pause, resumes to exit and renders every
// pause (reason, line, variable, old and new JSON, LastLine) and the exit.
func probeTranscript(t *testing.T, src string, ids []string, line int, opts ...core.LoadOption) string {
	t.Helper()
	tr := load(t, src, opts...)
	tr.interp.MaxSteps, tr.interp.MaxSeqElems = fuzzSteps, fuzzSeqElems
	defer tr.Terminate()
	var b strings.Builder
	err := tr.Start()
	for _, id := range ids {
		if err == nil {
			err = tr.Watch(id)
		}
	}
	if err == nil {
		err = tr.BreakBeforeLine("", line)
	}
	for err == nil {
		if _, done := tr.ExitCode(); done {
			break
		}
		r := tr.PauseReason()
		fmt.Fprintf(&b, "%s %s@%d %s -> %s, last line %d\n",
			r.Type, r.Variable, r.Line, valueJSON(t, r.Old), valueJSON(t, r.New), tr.LastLine())
		err = tr.Resume()
	}
	code, _ := tr.ExitCode()
	fmt.Fprintf(&b, "exit %d, last line %d, error %v\n", code, tr.LastLine(), err)
	return b.String()
}

// FuzzProbeSkip is the differential oracle of the lines a plain Resume
// skips. On any program, with a watch on each global it binds and a line
// breakpoint chosen from the input, a plain session must pause exactly
// where a session that records itself does, which sees every line, with
// the same reasons, values and LastLine.
func FuzzProbeSkip(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "minipy", "testdata", "programs", "*.py"))
	if err != nil {
		f.Fatal(err)
	}
	files = append(files, filepath.Join("..", "minipy", "testdata", "writebarriers.py"))
	for i, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint16(3*i+2))
	}
	f.Fuzz(func(t *testing.T, src string, line uint16) {
		if _, err := minipy.Parse("prog.py", src); err != nil || src == "" { // an empty source loads from the file
			return
		}
		n := len(strings.Split(strings.TrimRight(src, "\n"), "\n"))
		at := 1 + int(line)%n
		var ids []string
		for _, id := range watchVars(t, src, fuzzSteps) {
			if strings.HasPrefix(id, "::") {
				ids = append(ids, id)
			}
		}
		plain := probeTranscript(t, src, ids, at)
		rec := probeTranscript(t, src, ids, at, core.WithRecording(0))
		if plain != rec {
			t.Errorf("plain and recording sessions differ (watches %v, breakpoint at %d)\n--- plain ---\n%s--- recording ---\n%s",
				ids, at, plain, rec)
		}
	})
}
