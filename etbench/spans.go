package main

import (
	"io"
	"sort"
	"time"

	"easytracker"
)

// fam is a call family: one public entry point of one layer, timed from the
// benchmark's side of the call.
type fam uint8

const (
	famSession fam = iota
	famCheck
	famMinipyCompile
	famMinipyRun
	famPyLoad
	famPyStart
	famPyArm
	famPyStep
	famPyState
	famPyResume
	famPyFrame
	famPyRecord
	famPyTerminate
	famRungResume
	famJSONEncode
	famJSONDecode
	famRecLoad
	famRecSeek
	famRecStepBack
	famRecResumeBack
	famRecLastChange
	famPtRecord
	famTtdFromTrace
	famTTLoadV1
	famTTLoadV2
	famTTStart
	famV1Seek
	famV1StepBack
	famV1ResumeBack
	famV1LastChange
	famV2Seek
	famV2StepBack
	famV2ResumeBack
	famV2LastChange
	famTTTerminate
	famRemoteConnect
	famRemoteLoad
	famRemoteStart
	famRemoteStep
	famRemoteState
	famRemoteTerminate
	famMinicCompile
	famVMRun
	famDbgStart
	famDbgStep
	famGdbLoad
	famGdbStart
	famGdbArm
	famGdbStep
	famGdbState
	famGdbResume
	famGdbSeek
	famGdbStepBack
	famGdbTerminate
	numFams
)

// famInfo names a family and its module. Families with a metric report the
// median call time under metric, plus .calls and .busy_ms under the name;
// the others are spanned so that the reconciliation can attribute their
// time, or so that a layer measurement's calls do not pool with the
// workload's own calls of the same entry point.
var famInfo = [numFams]struct {
	name, module, metric, unit string
}{
	famSession:         {"bench.session", "bench", "", ""},
	famCheck:           {"bench.check", "bench", "", ""},
	famMinipyCompile:   {"minipy.compile", "minipy", "minipy.compile_us", "us"},
	famMinipyRun:       {"minipy.run", "minipy", "", ""},
	famPyLoad:          {"pytracker.load", "pytracker", "pytracker.load_us", "us"},
	famPyStart:         {"pytracker.start", "pytracker", "", ""},
	famPyArm:           {"pytracker.arm", "pytracker", "", ""},
	famPyStep:          {"pytracker.step", "pytracker", "pytracker.step_us", "us"},
	famPyState:         {"pytracker.state", "pytracker", "pytracker.state_us", "us"},
	famPyResume:        {"pytracker.resume", "pytracker", "pytracker.resume_us", "us"},
	famPyFrame:         {"pytracker.frame", "pytracker", "", ""},
	famPyRecord:        {"pytracker.record", "pytracker", "", ""},
	famPyTerminate:     {"pytracker.terminate", "pytracker", "", ""},
	famRungResume:      {"pytracker.rung_resume", "pytracker", "", ""},
	famJSONEncode:      {"core.json_encode", "core", "core.json_encode_us", "us"},
	famJSONDecode:      {"core.json_decode", "core", "core.json_decode_us", "us"},
	famRecLoad:         {"pytracker.rec.load", "pytracker", "", ""},
	famRecSeek:         {"pytracker.rec.seek", "pytracker", "pytracker.rec.seek_us", "us"},
	famRecStepBack:     {"pytracker.rec.stepback", "pytracker", "pytracker.rec.stepback_us", "us"},
	famRecResumeBack:   {"pytracker.rec.resumeback", "pytracker", "pytracker.rec.resumeback_us", "us"},
	famRecLastChange:   {"pytracker.rec.lastchange", "pytracker", "pytracker.rec.lastchange_us", "us"},
	famPtRecord:        {"pt.record", "pt", "", ""},
	famTtdFromTrace:    {"ttd.from_trace", "ttd", "", ""},
	famTTLoadV1:        {"tracetracker.load_v1", "tracetracker", "tracetracker.load_v1_ms", "ms"},
	famTTLoadV2:        {"tracetracker.load_v2", "tracetracker", "tracetracker.load_v2_ms", "ms"},
	famTTStart:         {"tracetracker.start", "tracetracker", "", ""},
	famV1Seek:          {"tracetracker.v1.seek", "tracetracker", "tracetracker.v1.seek_us", "us"},
	famV1StepBack:      {"tracetracker.v1.stepback", "tracetracker", "tracetracker.v1.stepback_us", "us"},
	famV1ResumeBack:    {"tracetracker.v1.resumeback", "tracetracker", "tracetracker.v1.resumeback_us", "us"},
	famV1LastChange:    {"tracetracker.v1.lastchange", "tracetracker", "tracetracker.v1.lastchange_us", "us"},
	famV2Seek:          {"tracetracker.v2.seek", "tracetracker", "tracetracker.v2.seek_us", "us"},
	famV2StepBack:      {"tracetracker.v2.stepback", "tracetracker", "tracetracker.v2.stepback_us", "us"},
	famV2ResumeBack:    {"tracetracker.v2.resumeback", "tracetracker", "tracetracker.v2.resumeback_us", "us"},
	famV2LastChange:    {"tracetracker.v2.lastchange", "tracetracker", "tracetracker.v2.lastchange_us", "us"},
	famTTTerminate:     {"tracetracker.terminate", "tracetracker", "", ""},
	famRemoteConnect:   {"remote.connect", "remote", "remote.connect_us", "us"},
	famRemoteLoad:      {"remote.load", "remote", "", ""},
	famRemoteStart:     {"remote.start", "remote", "", ""},
	famRemoteStep:      {"remote.step", "remote", "remote.step_us", "us"},
	famRemoteState:     {"remote.state", "remote", "remote.state_us", "us"},
	famRemoteTerminate: {"remote.terminate", "remote", "", ""},
	famMinicCompile:    {"minic.compile", "minic", "minic.compile_us", "us"},
	famVMRun:           {"vm.run", "vm", "", ""},
	famDbgStart:        {"dbg.start", "dbg", "", ""},
	famDbgStep:         {"dbg.step", "dbg", "dbg.step_us", "us"},
	famGdbLoad:         {"gdbtracker.load", "gdbtracker", "gdbtracker.load_us", "us"},
	famGdbStart:        {"gdbtracker.start", "gdbtracker", "", ""},
	famGdbArm:          {"gdbtracker.arm", "gdbtracker", "", ""},
	famGdbStep:         {"gdbtracker.step", "gdbtracker", "gdbtracker.step_us", "us"},
	famGdbState:        {"gdbtracker.state", "gdbtracker", "gdbtracker.state_us", "us"},
	famGdbResume:       {"gdbtracker.resume", "gdbtracker", "gdbtracker.resume_us", "us"},
	famGdbSeek:         {"gdbtracker.seek", "gdbtracker", "gdbtracker.seek_us", "us"},
	famGdbStepBack:     {"gdbtracker.stepback", "gdbtracker", "gdbtracker.stepback_us", "us"},
	famGdbTerminate:    {"gdbtracker.terminate", "gdbtracker", "", ""},
}

// span is one timed call. Times are nanoseconds since the tracer's epoch on
// the monotonic clock.
type span struct {
	fam        fam
	err        bool
	session    int32
	parent     int32
	start, end int64
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing: untraced runs pay one pointer test per call.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(f fam, session int32) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{fam: f, session: session, parent: parent, start: int64(time.Since(t.epoch))})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32, err error) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.spans[i].err = err != nil
	t.open = t.open[:len(t.open)-1]
}

// famStats aggregates one family's spans.
type famStats struct {
	durs   []int64
	busy   int64
	errors int
}

func (t *tracer) stats() [numFams]famStats {
	var st [numFams]famStats
	for _, s := range t.spans {
		d := s.end - s.start
		st[s.fam].durs = append(st[s.fam].durs, d)
		st[s.fam].busy += d
		if s.err {
			st[s.fam].errors++
		}
	}
	return st
}

// selfTimes returns every span's duration minus the time its child spans
// cover. Children of one span never overlap: calls are sequential.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// unattributed reconciles "session time = layer self times + benchmark
// time" over every session span: it returns the session time that neither
// a layer call nor the benchmark's own checks cover, the two covered parts,
// the total, and the largest uncovered share of any one session.
func (t *tracer) unattributed() (remainder, layers, bench, total int64, worst float64) {
	self := t.selfTimes()
	for i, s := range t.spans {
		switch {
		case s.fam == famSession:
			total += s.end - s.start
			remainder += self[i]
			worst = max(worst, float64(self[i])/float64(s.end-s.start))
		case s.session < 0:
		case s.fam == famCheck:
			bench += self[i]
		default:
			layers += self[i]
		}
	}
	return remainder, layers, bench, total, worst
}

// writeChrome writes the spans of the first maxSessions traced sessions,
// plus every span outside a session, as a Chrome trace-event document (one
// row per session) that Perfetto opens.
func (t *tracer) writeChrome(w io.Writer, proc string, maxSessions int32) error {
	wall := t.epoch.UnixNano()
	var recs []easytracker.SpanRecord
	kept := map[int32]bool{}
	for i, s := range t.spans {
		if s.session >= 0 && !kept[s.session] {
			if int32(len(kept)) >= maxSessions {
				continue
			}
			kept[s.session] = true
		}
		r := easytracker.SpanRecord{
			TraceID:     uint64(s.session + 2),
			SpanID:      uint64(i + 1),
			Proc:        proc,
			Name:        famInfo[s.fam].name,
			StartUnixNs: wall + s.start,
			DurNs:       s.end - s.start,
		}
		if s.parent >= 0 {
			r.Parent = uint64(s.parent + 1)
		}
		if s.err {
			r.Err = "error"
		}
		recs = append(recs, r)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].StartUnixNs < recs[j].StartUnixNs })
	return easytracker.WriteChromeTrace(w, &easytracker.SpanDump{Proc: proc, Spans: recs})
}
