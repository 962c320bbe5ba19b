package gdbtracker

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/mi"
)

// This file pins the MI text a tracker session exchanges with MiniGDB: one
// SHA-256 per (program, script) over every line that crosses mi.Connect,
// both ways, for the programs of internal/minic/testdata/lines.txtar (the
// gdb-mi corpus shapes among them).

// transcriptLog hashes every line sent and received through the
// connection it wraps.
type transcriptLog struct {
	mi.Conn
	h hash.Hash
}

func (c *transcriptLog) Send(line string) error {
	fmt.Fprintf(c.h, "> %s\n", line)
	return c.Conn.Send(line)
}

func (c *transcriptLog) Recv() (string, error) {
	line, err := c.Conn.Recv()
	if err == nil {
		fmt.Fprintf(c.h, "< %s\n", line)
	}
	return line, err
}

// maxTranscriptPauses caps the pauses of one scripted session.
const maxTranscriptPauses = 500

// transcriptProgram is one program of lines.txtar.
type transcriptProgram struct{ name, src string }

// transcriptPrograms reads internal/minic/testdata/lines.txtar: each
// program follows a "-- name --" line, and the text before the first one
// is a comment.
func transcriptPrograms(t *testing.T) []transcriptProgram {
	t.Helper()
	data, err := os.ReadFile("../minic/testdata/lines.txtar")
	if err != nil {
		t.Fatal(err)
	}
	var ps []transcriptProgram
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), "-- "); ok && strings.HasSuffix(name, " --") {
			ps = append(ps, transcriptProgram{name: strings.TrimSuffix(name, " --")})
		} else if len(ps) > 0 {
			ps[len(ps)-1].src += line
		}
	}
	if len(ps) == 0 {
		t.Fatal("lines.txtar holds no programs")
	}
	return ps
}

// The scripts a transcript runs.
const (
	scriptStep  = "step"  // Step to exit, State at every pause
	scriptTrack = "track" // TrackFunction on the first function but main, Resume + State
	scriptWatch = "watch" // Watch the first global, heap tracking and recording on, Resume + State
)

var transcriptScripts = []string{scriptStep, scriptTrack, scriptWatch}

// transcript runs script on p and returns the digest of the MI lines it
// exchanged, or "" when the program has nothing for the script to arm.
func transcript(t *testing.T, p transcriptProgram, script string) string {
	t.Helper()
	log := &transcriptLog{h: sha256.New()}
	tr := New()
	tr.SetConnWrapper(func(c mi.Conn) mi.Conn { log.Conn = c; return log })
	opts := []core.LoadOption{core.WithSource(p.src)}
	if script == scriptWatch {
		opts = append(opts, core.WithHeapTracking(), core.WithRecording(0))
	}
	if err := tr.LoadProgram(p.name, opts...); err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	defer tr.Terminate()
	var target string
	switch script {
	case scriptTrack:
		for _, f := range tr.prog.Funcs {
			if f.Line > 0 && f.Name != "main" {
				target = f.Name
				break
			}
		}
	case scriptWatch:
		for _, g := range tr.prog.Globals {
			if !strings.HasPrefix(g.Name, "__") {
				target = g.Name
				break
			}
		}
	}
	if script != scriptStep && target == "" {
		return ""
	}
	if err := tr.Start(); err != nil {
		t.Fatalf("%s %s: Start: %v", p.name, script, err)
	}
	control := tr.Resume
	switch script {
	case scriptStep:
		control = tr.Step
	case scriptTrack:
		if err := tr.TrackFunction(target); err != nil {
			t.Fatalf("%s: TrackFunction(%s): %v", p.name, target, err)
		}
	case scriptWatch:
		if err := tr.Watch("::" + target); err != nil {
			t.Fatalf("%s: Watch(%s): %v", p.name, target, err)
		}
	}
	for pauses := 0; pauses < maxTranscriptPauses; pauses++ {
		if _, done := tr.ExitCode(); done {
			break
		}
		if _, err := tr.State(); err != nil {
			t.Fatalf("%s %s: State at pause %d: %v", p.name, script, pauses, err)
		}
		if err := control(); err != nil {
			t.Fatalf("%s %s: control at pause %d: %v", p.name, script, pauses, err)
		}
	}
	return hex.EncodeToString(log.h.Sum(nil))
}

// TestMITranscriptGolden holds the MI lines of every (program, script) to
// testdata/transcripts.digests.
func TestMITranscriptGolden(t *testing.T) {
	f, err := os.Open("testdata/transcripts.digests")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, digest, ok := strings.Cut(sc.Text(), "  "); ok {
			want[key] = digest
		}
	}
	seen := 0
	for _, p := range transcriptPrograms(t) {
		for _, script := range transcriptScripts {
			got := transcript(t, p, script)
			if got == "" {
				continue
			}
			seen++
			key := p.name + " " + script
			if got != want[key] {
				t.Errorf("%s: transcript digests to %s, want %s", key, got, want[key])
			}
		}
	}
	if seen != len(want) {
		t.Errorf("%d transcripts for %d digests", seen, len(want))
	}
}
