package main

import (
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"easytracker/internal/core"
)

// script is the sessions a pass runs over a corpus.
type script interface {
	// sessions is the number of sessions in one pass over the corpus.
	sessions() int
	// session runs session i of a pass.
	session(s *sess, i int) error
	// stdout is the expected inferior output of session i.
	stdout(i int) string
}

// workload is one fixed-work scenario: a seeded corpus, the script a tool
// runs over each program, and the checks on its outputs.
type workload interface {
	script
	// oracle runs the uninstrumented reference executions; it precedes
	// set-up and is not timed.
	oracle(b *bench) error
	// setUp does the one-time program set-up that precedes the warm-up
	// pass (the server start); tearDown undoes it.
	setUp(b *bench) error
	tearDown()
	// hold opens session i of a pass and leaves it at a fixed pause;
	// release ends it.
	hold(s *sess, i int) (release func(), err error)
	// layers runs, after the traced passes, the layer measurements that
	// the workload's own calls cannot give, and stores the derived
	// per-layer metrics in lm.
	layers(b *bench, seed uint64, lm map[string]float64) error
}

// bench is the state of one run.
type bench struct {
	tr    *tracer
	hseed maphash.Seed
	s     sess
	next  int32

	// cur records the pass in progress.
	cur passRec

	attempted, failed int64
	errs              []string
	// want are the expected session digests; the first warm-up pass sets
	// them unless the workload's oracle already did. got are the digests of
	// the latest pass's sessions.
	want, got []uint64
}

// sess is the per-session context the workload scripts run in.
type sess struct {
	b   *bench
	id  int32
	h   maphash.Hash
	out strings.Builder
	// seen numbers the containers foldValue has visited in the current
	// observation.
	seen map[*core.Value]int
}

func newBench() *bench {
	b := &bench{hseed: maphash.MakeSeed()}
	b.s.b = b
	return b
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.errs) < 8 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// observe ends one interaction that started at t0.
func (b *bench) observe(t0 time.Time) {
	b.cur.lat = append(b.cur.lat, int64(time.Since(t0)))
	b.attempted++
}

func (s *sess) begin(f fam) int32 { return s.b.tr.begin(f, s.id) }

func (s *sess) end(sp int32, err error) error {
	s.b.tr.end(sp, err)
	return err
}

// do runs one call of family f.
func (s *sess) do(f fam, call func() error) error {
	sp := s.begin(f)
	return s.end(sp, call())
}

// digest folds one observation into the session transcript digest: a
// serialized state (may be nil), a name, and integers such as pause kinds
// and lines.
func (s *sess) digest(data []byte, name string, ints ...int) {
	sp := s.begin(famCheck)
	s.h.Write(data)
	s.h.WriteString(name)
	for _, v := range ints {
		s.foldInt(int64(v))
	}
	s.h.WriteByte(0)
	s.end(sp, nil)
}

func (s *sess) foldInt(v int64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(uint64(v) >> (8 * i))
	}
	s.h.Write(buf[:])
}

// foldValue folds a value graph into the digest: every value's kind,
// location, language type and content in depth-first order. A container
// met again in the same observation is folded as the number of its first
// visit, so cycles end and aliasing shows. It walks the graph instead of
// encoding it as JSON because it runs on every pause of probe-py, whose
// watched values hold up to a thousand elements.
func (s *sess) foldValue(v *core.Value) {
	if v == nil {
		s.foldInt(-1)
		return
	}
	if k, ok := s.seen[v]; ok {
		s.foldInt(-2 - int64(k))
		return
	}
	if v.Kind != core.Primitive {
		s.seen[v] = len(s.seen)
	}
	s.foldInt(int64(v.Kind)<<8 | int64(v.Location))
	s.h.WriteString(v.LanguageType)
	switch c := v.Content.(type) {
	case int64:
		s.foldInt(c)
	case float64:
		s.foldInt(int64(math.Float64bits(c)))
	case bool:
		s.h.WriteByte(b2i(c))
	case string:
		s.h.WriteString(c)
	case *core.Value:
		s.foldValue(c)
	case []*core.Value:
		s.foldInt(int64(len(c)))
		for _, e := range c {
			s.foldValue(e)
		}
	case []core.DictEntry:
		s.foldInt(int64(len(c)))
		for _, e := range c {
			s.foldValue(e.Key)
			s.foldValue(e.Val)
		}
	case []core.Field:
		s.foldInt(int64(len(c)))
		for _, f := range c {
			s.h.WriteString(f.Name)
			s.foldValue(f.Value)
		}
	case nil:
	default:
		fmt.Fprint(&s.h, c)
	}
}

func b2i(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// newSess resets the reusable session context for a fresh session.
func (b *bench) newSess() *sess {
	s := &b.s
	s.id = b.next
	b.next++
	s.h.SetSeed(b.hseed)
	s.out.Reset()
	if s.seen == nil {
		s.seen = map[*core.Value]int{}
	}
	return s
}

// runSession runs session i and checks its stdout and, when want is
// non-nil, its transcript digest against want[i]; it returns the digest.
func (b *bench) runSession(w script, i int, want []uint64) uint64 {
	s := b.newSess()
	sp := s.begin(famSession)
	err := w.session(s, i)
	ck := s.begin(famCheck)
	b.attempted++
	d := s.h.Sum64()
	switch {
	case err != nil:
		b.fail("session %d: %v", i, err)
	case s.out.String() != w.stdout(i):
		b.fail("session %d: stdout %q, want %q", i, s.out.String(), w.stdout(i))
	case want != nil && d != want[i]:
		b.fail("session %d: transcript digest %x, want %x", i, d, want[i])
	}
	s.end(ck, nil)
	s.end(sp, err)
	return d
}

// pass runs every session of one pass over the corpus, checking digests
// against want. It returns the pass's record and its digests, valid until
// the next pass.
func (b *bench) pass(w script, want []uint64) (passRec, []uint64) {
	n := w.sessions()
	b.cur = passRec{
		sess: make([]float64, 0, n),
		lat:  make([]int64, 0, len(b.cur.lat)),
	}
	b.got = b.got[:0]
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d := b.runSession(w, i, want)
		b.cur.sess = append(b.cur.sess, time.Since(t0).Seconds())
		b.got = append(b.got, d)
	}
	b.cur.wall = time.Since(start).Seconds()
	return b.cur, b.got
}

// passRec records one pass: its wall time and each session's (s), and
// every interaction's latency (ns) in order.
type passRec struct {
	wall float64
	sess []float64
	lat  []int64
}

// passRecs are the records of several passes over the same corpus.
type passRecs []passRec

// walls are the passes' wall times.
func (ps passRecs) walls() []float64 {
	ws := make([]float64, len(ps))
	for i, p := range ps {
		ws[i] = p.wall
	}
	return ws
}

// medianWall is the median wall time of a whole pass. Every pass is the
// same work, and each holds many garbage collections and thousands of
// handoffs, so the costs the program causes itself land in every pass;
// the median drops only passes that the host stalled.
func (ps passRecs) medianWall() float64 { return median(ps.walls()) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// latencies pools the interaction latencies of all passes, sorted.
func (ps passRecs) latencies() []int64 {
	var all []int64
	for _, p := range ps {
		all = append(all, p.lat...)
	}
	slices.Sort(all)
	return all
}

// Heap-allocation counters, read around each timed pass.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readAllocs() (objects, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64() + allocSamples[1].Value.Uint64(), allocSamples[2].Value.Uint64()
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// retained holds k sessions open at a fixed pause and returns the live heap
// they add, in KiB per session.
func (b *bench) retained(w workload, k int) float64 {
	before := liveHeap()
	var releases []func()
	for i := 0; i < k; i++ {
		s := b.newSess()
		rel, err := w.hold(s, i%w.sessions())
		b.attempted++
		if err != nil {
			b.fail("hold session %d: %v", i, err)
			continue
		}
		releases = append(releases, rel)
	}
	after := liveHeap()
	for _, rel := range releases {
		rel()
	}
	return (float64(after) - float64(before)) / float64(k) / 1024
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianInt(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

func logf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "etbench: "+format+"\n", args...)
}
