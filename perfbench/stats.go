package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// opLog collects one phase's op outcomes. A failed op has no latency: it
// counts as a miss against every latency limit, so in percentile math it
// ranks above every completed op.
type opLog struct {
	lat    []float64 // completed ops, milliseconds
	failed int
}

func (l *opLog) ok(d time.Duration) { l.lat = append(l.lat, float64(d)/1e6) }
func (l *opLog) fail()              { l.failed++ }
func (l *opLog) attempted() int     { return len(l.lat) + l.failed }

func (l *opLog) merge(o *opLog) {
	l.lat = append(l.lat, o.lat...)
	l.failed += o.failed
}

// pctMiss reports the p-th percentile (0 < p <= 100, nearest rank) of the
// phase's latencies with failed ops counted as misses. A rank that lands
// on a failed op reports missLat, the per-op deadline every failed op
// waited out or was denied service for. ok is false for an empty log.
func (l *opLog) pctMiss(p float64, missLat float64) (v float64, ok bool) {
	n := l.attempted()
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l.lat) {
		return missLat, true
	}
	sorted := append([]float64(nil), l.lat...)
	sort.Float64s(sorted)
	return sorted[rank-1], true
}

// beyond reports how many attempted ops rank above the p-th percentile:
// the sample support behind a reported tail.
func (l *opLog) beyond(p float64) int {
	n := l.attempted()
	return n - int(math.Ceil(p/100*float64(n)))
}

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// pct is the nearest-rank percentile of a plain sample (no misses).
func pct(xs []float64, p float64) float64 {
	l := opLog{lat: xs}
	v, _ := l.pctMiss(p, 0)
	return v
}

// counterKey names one per-shard counter series in a scrape.
type counterKey struct {
	name  string
	shard string
}

// scrape is one point-in-time read of the cumulative counters: per-shard
// series (which restart from zero when their shard respawns) and the
// shard generations that tell a restart from a plain increase.
type scrape struct {
	vals map[counterKey]float64
	gen  map[string]float64
}

// deltaOver sums, across shards, the growth of counter name between two
// scrapes. A shard whose generation changed (or whose counter went
// backwards) respawned in between: its new replica set counted from
// zero, so its whole current value is growth. What the dead generation
// counted after the earlier scrape is lost; a scrape before a respawn
// would be needed to see it.
func deltaOver(a, b scrape, name string) float64 {
	var sum float64
	for k, v := range b.vals {
		if k.name != name {
			continue
		}
		prev, seen := a.vals[k]
		if !seen || a.gen[k.shard] != b.gen[k.shard] || v < prev {
			sum += v
			continue
		}
		sum += v - prev
	}
	return sum
}

// span is one traced interval around a benchmark call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int32         // index of the enclosing span, -1 for none
	op         int64         // op id shared by the spans of one op, -1 for none
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced path pays one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	return t.beginAt(name, time.Now(), parent, op)
}

// beginAt opens a span that started at start: an open-loop op starts
// when it was due, not when the generator got to it.
func (t *tracer) beginAt(name string, start time.Time, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.origin), end: -1, parent: parent, op: op})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// add records a span that started at start and ends now: for calls whose
// span is kept only when the call did work.
func (t *tracer) add(name string, start time.Time, parent int32, op int64) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.origin), end: now, parent: parent, op: op})
	t.mu.Unlock()
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// durations reports the closed spans of one name, in microseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// write dumps every span as one CSV line: name,start_us,end_us,parent,op.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_us,end_us,parent,op")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%.3f,%.3f,%d,%d\n", s.name, float64(s.start)/1e3, float64(s.end)/1e3, s.parent, s.op)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak tracks the largest heap the process retains: live bytes after
// a full collection, read at op boundaries (phase starts, between
// program runs). Collecting there also starts every measured phase from
// a clean heap, so what set-up or the last phase left behind does not
// decide when the collector runs inside it.
type heapPeak struct{ peak uint64 }

func (h *heapPeak) collect() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// windows splits a phase into fixed host-time windows, ops by due time
// and completions by completion time. Figures are taken per window and
// the median over windows reported, so one disturbed second (a GC pause,
// a noisy neighbour) moves one window rather than the reported figure;
// ok_frac still counts every failure in every window.
type windows struct {
	start time.Time
	width time.Duration
	ops   []opLog
	done  []int
}

// newWindows splits length into equal windows of about width each.
func newWindows(start time.Time, length, width time.Duration) windows {
	n := int((length + width/2) / width)
	if n < 1 {
		n = 1
	}
	return windows{start: start, width: length / time.Duration(n), ops: make([]opLog, n), done: make([]int, n)}
}

// slot is t's window; ok is false outside the phase.
func (w *windows) slot(t time.Time) (int, bool) {
	d := t.Sub(w.start)
	if d < 0 {
		return 0, false
	}
	i := int(d / w.width)
	if i >= len(w.ops) {
		return len(w.ops) - 1, false
	}
	return i, true
}

func (w *windows) ok(due, now time.Time) {
	i, _ := w.slot(due)
	w.ops[i].ok(now.Sub(due))
	if j, in := w.slot(now); in {
		w.done[j]++
	}
}

func (w *windows) fail(due time.Time) {
	i, _ := w.slot(due)
	w.ops[i].fail()
}

// merge adds o, which has the same shape, into w.
func (w *windows) merge(o *windows) {
	for i := range w.ops {
		w.ops[i].merge(&o.ops[i])
		w.done[i] += o.done[i]
	}
}

// all is the whole phase's log.
func (w *windows) all() opLog {
	var l opLog
	for i := range w.ops {
		l.merge(&w.ops[i])
	}
	return l
}

// winStat is one window's figures: what a pass keeps once its raw
// samples are dropped, so the harness's own memory does not grow with
// the op count.
type winStat struct {
	p50, p99          float64 // ms, failed ops counted as misses
	beyond99          int     // ops ranked above the p99: its sample support
	attempted, failed int
	done              int // completions inside the window
}

// stats summarises every window, failed ops ranking at missLat.
func (w *windows) stats(missLat float64) []winStat {
	out := make([]winStat, len(w.ops))
	for i := range w.ops {
		l := &w.ops[i]
		out[i].p50, _ = l.pctMiss(50, missLat)
		out[i].p99, _ = l.pctMiss(99, missLat)
		out[i].beyond99 = l.beyond(99)
		out[i].attempted, out[i].failed, out[i].done = l.attempted(), l.failed, w.done[i]
	}
	return out
}

// medianWin is the median of f over the windows that attempted ops.
func medianWin(ws []winStat, f func(winStat) float64) float64 {
	var xs []float64
	for _, w := range ws {
		if w.attempted > 0 {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

func winP50(w winStat) float64 { return w.p50 }
func winP99(w winStat) float64 { return w.p99 }

// minBeyond99 is the smallest p99 sample support among windows with ops.
func minBeyond99(ws []winStat) int {
	m := -1
	for _, w := range ws {
		if w.attempted > 0 && (m < 0 || w.beyond99 < m) {
			m = w.beyond99
		}
	}
	return m
}

// totals sums attempted and failed ops over windows.
func totals(ws []winStat) (attempted, failed int) {
	for _, w := range ws {
		attempted += w.attempted
		failed += w.failed
	}
	return attempted, failed
}
