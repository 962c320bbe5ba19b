// Ablation benchmarks for the design choices the paper motivates:
//
//   - the MI pipe (Fig. 4): what the protocol layer costs over driving the
//     debugger directly;
//   - server-side maxdepth breakpoints (the custom GDB extension): what it
//     saves over pausing at every hit and filtering client-side;
//   - allocator interposition (the LD_PRELOAD shim): what the silent
//     watchpoints cost an allocation-heavy program;
//   - watchpoint count in the MiniPy tracker: the per-line comparison cost
//     that makes resume degrade to single-stepping.
package easytracker_test

import (
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/dbg"
	"easytracker/internal/gdbtracker"
	"easytracker/internal/minic"
	"easytracker/internal/pytracker"
	"easytracker/internal/vm"
)

const ablFibC = `int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int r = fib(8);
    printf("%d\n", r);
    return 0;
}`

// BenchmarkAblationDirectDbgStep steps line by line against the debugger
// core directly (no MI pipe).
func BenchmarkAblationDirectDbgStep(b *testing.B) {
	prog, err := minic.Compile("fib.c", ablFibC)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := dbg.New(prog, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Start(); err != nil {
			b.Fatal(err)
		}
		steps := 0
		for {
			if _, done := d.Exited(); done {
				break
			}
			if _, err := d.StepLine(nil); err != nil {
				b.Fatal(err)
			}
			steps++
		}
		b.ReportMetric(float64(steps), "lines/op")
	}
}

// BenchmarkAblationMIPipeStep is the same workload through the full MI
// protocol; the difference against DirectDbgStep is the pipe cost the
// paper accepts for process separation. In process the pipe is
// mi.Connect: every command and reply is still split, printed and parsed
// as MI text, but runs on the stepping goroutine, so the difference holds
// the protocol and the tracker and no goroutine handoff.
func BenchmarkAblationMIPipeStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := gdbtracker.New()
		if err := tr.LoadProgram("fib.c", core.WithSource(ablFibC)); err != nil {
			b.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		steps := 0
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			if err := tr.Step(); err != nil {
				b.Fatal(err)
			}
			steps++
		}
		b.ReportMetric(float64(steps), "lines/op")
		tr.Terminate()
	}
}

// BenchmarkAblationMaxDepthServerSide uses the paper's custom maxdepth
// breakpoint: filtered activations never cross the pipe.
func BenchmarkAblationMaxDepthServerSide(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := gdbtracker.New()
		if err := tr.LoadProgram("fib.c", core.WithSource(ablFibC)); err != nil {
			b.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		if err := tr.BreakBeforeFunc("fib", core.WithMaxDepth(2)); err != nil {
			b.Fatal(err)
		}
		pauses := 0
		for {
			if err := tr.Resume(); err != nil {
				b.Fatal(err)
			}
			if _, done := tr.ExitCode(); done {
				break
			}
			pauses++
		}
		b.ReportMetric(float64(pauses), "pipe-pauses/op")
		tr.Terminate()
	}
}

// BenchmarkAblationMaxDepthClientSide ablates the extension: an unfiltered
// breakpoint pauses on every activation and the tracker inspects the depth
// and resumes — every hit pays a pipe round trip plus a state transfer.
func BenchmarkAblationMaxDepthClientSide(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := gdbtracker.New()
		if err := tr.LoadProgram("fib.c", core.WithSource(ablFibC)); err != nil {
			b.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		if err := tr.BreakBeforeFunc("fib"); err != nil {
			b.Fatal(err)
		}
		pauses, kept := 0, 0
		for {
			if err := tr.Resume(); err != nil {
				b.Fatal(err)
			}
			if _, done := tr.ExitCode(); done {
				break
			}
			pauses++
			fr, err := tr.CurrentFrame()
			if err != nil {
				b.Fatal(err)
			}
			if fr.Depth < 2 {
				kept++
			}
		}
		if kept == 0 {
			b.Fatal("no kept pauses")
		}
		b.ReportMetric(float64(pauses), "pipe-pauses/op")
		tr.Terminate()
	}
}

const ablAllocC = `int main() {
    for (int i = 0; i < 50; i++) {
        char* p = malloc(32);
        free(p);
    }
    return 0;
}`

// BenchmarkAblationHeapTrackingOff runs an allocation-heavy program without
// interposition watchpoints.
func BenchmarkAblationHeapTrackingOff(b *testing.B) {
	benchAlloc(b, false)
}

// BenchmarkAblationHeapTrackingOn pays for the silent interposition
// watchpoints on every malloc/free.
func BenchmarkAblationHeapTrackingOn(b *testing.B) {
	benchAlloc(b, true)
}

func benchAlloc(b *testing.B, track bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := gdbtracker.New()
		opts := []core.LoadOption{core.WithSource(ablAllocC)}
		if track {
			opts = append(opts, core.WithHeapTracking())
		}
		if err := tr.LoadProgram("alloc.c", opts...); err != nil {
			b.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		if err := tr.Resume(); err != nil {
			b.Fatal(err)
		}
		if _, done := tr.ExitCode(); !done {
			b.Fatal("did not finish")
		}
		tr.Terminate()
	}
}

// BenchmarkAblationWatchCountMiniPy measures how the number of watched
// variables scales the per-line cost of resume in the MiniPy tracker.
func BenchmarkAblationWatchCountMiniPy(b *testing.B) {
	src := `a = 0
b = 0
c = 0
d = 0
k = 0
while k < 300:
    k = k + 1
a = 1
`
	for _, watches := range []int{0, 1, 4} {
		watches := watches
		b.Run(strings.Repeat("w", watches)+"-watches", func(b *testing.B) {
			b.ReportAllocs()
			names := []string{"::a", "::b", "::c", "::d"}
			for i := 0; i < b.N; i++ {
				tr := pytracker.New()
				if err := tr.LoadProgram("w.py", core.WithSource(src)); err != nil {
					b.Fatal(err)
				}
				if err := tr.Start(); err != nil {
					b.Fatal(err)
				}
				for w := 0; w < watches; w++ {
					if err := tr.Watch(names[w]); err != nil {
						b.Fatal(err)
					}
				}
				for {
					if err := tr.Resume(); err != nil {
						b.Fatal(err)
					}
					if _, done := tr.ExitCode(); done {
						break
					}
				}
				tr.Terminate()
			}
		})
	}
}
