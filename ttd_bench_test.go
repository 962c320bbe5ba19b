package easytracker_test

import (
	"strings"
	"testing"

	"easytracker"
	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/pytracker"
	"easytracker/internal/ttd"
)

// recordSeekTrace records a ~6000-step minipy execution once per benchmark
// as the seek ablation's shared input. The trace must be long enough that a
// checkpoint-free replay visibly loses to checkpointed seeks: per-delta
// application is tens of nanoseconds, so thousands of steps are needed
// before the delta walk dominates one checkpoint's JSON decode.
func recordSeekTrace(b *testing.B) *pt.Trace {
	b.Helper()
	src := "total = 0\nk = 0\nwhile k < 2000:\n    k = k + 1\n    total = total + k\nprint(total)\n"
	tr := pytracker.New()
	var out strings.Builder
	if err := tr.LoadProgram("seek.py", core.WithSource(src), core.WithStdout(&out)); err != nil {
		b.Fatal(err)
	}
	trace, err := pt.Record(tr, &out, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	if err != nil {
		b.Fatal(err)
	}
	return trace
}

// BenchmarkSeekColdVsCheckpoint is the checkpoint-interval ablation behind
// DESIGN.md §17's cost model: one cold StateAt per iteration on a
// delta-encoded store, cycling through scattered step targets so the
// one-step-forward memo never helps. full-replay anchors a single
// checkpoint at step 0, so every seek replays O(n) deltas — the price of
// recording deltas without checkpoints. Fixed intervals bound the delta
// walk at interval/2 on average; adaptive is the default O(sqrt n) policy.
// Reported, not gated: the ablation's value is the shape across
// sub-benchmarks, and absolute ns vary too much across runners.
func BenchmarkSeekColdVsCheckpoint(b *testing.B) {
	trace := recordSeekTrace(b)
	intervals := []struct {
		name string
		iv   int
	}{
		{"full-replay", 1 << 30}, // one checkpoint at step 0
		{"interval=256", 256},
		{"interval=32", 32},
		{"adaptive", 0},
	}
	for _, c := range intervals {
		b.Run(c.name, func(b *testing.B) {
			store, err := ttd.FromTrace(trace, c.iv)
			if err != nil {
				b.Fatal(err)
			}
			n := store.Len()
			if n < 100 {
				b.Fatalf("trace too short: %d steps", n)
			}
			// Scattered targets: no two consecutive seeks are
			// memo-adjacent, so each StateAt decodes a checkpoint and
			// walks deltas from scratch.
			targets := []int{n - 2, n / 4, 3 * n / 4, 1, n / 2, n - 10}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.StateAt(targets[i%len(targets)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(store.Trace().Checkpoints)), "checkpoints")
		})
	}
}

// BenchmarkRecordingOverheadOn prices live recording on
// BenchmarkResumeWithWatchpointMiniPy's workload: per-step delta diffing,
// the write-log append, and the adaptive checkpoint policy's periodic
// full-state snapshots.
func BenchmarkRecordingOverheadOn(b *testing.B) {
	benchWatchResume(b, easytracker.WithRecording(0))
}
