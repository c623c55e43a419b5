package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestPctMissCountsFailuresAsMisses(t *testing.T) {
	var l opLog
	for i := 1; i <= 98; i++ {
		l.ok(time.Duration(i) * time.Millisecond)
	}
	if got, _ := l.pctMiss(99, 1000); got != 98 {
		t.Fatalf("p99 of 98 completed ops = %v, want 98 (the top completed op)", got)
	}
	// Two failures push the 99th rank (ceil(0.99*100) = 99) past every
	// completed op: the tail now reports the miss latency.
	l.fail()
	l.fail()
	if got, _ := l.pctMiss(99, 1000); got != 1000 {
		t.Fatalf("p99 with 2%% failed = %v, want the miss latency 1000", got)
	}
	if got, _ := l.pctMiss(50, 1000); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if l.attempted() != 100 || l.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 100 and 2", l.attempted(), l.failed)
	}
}

func TestPctMissAllFailedAndEmpty(t *testing.T) {
	var l opLog
	if _, ok := l.pctMiss(50, 1000); ok {
		t.Fatal("empty log reported a percentile")
	}
	l.fail()
	if got, ok := l.pctMiss(1, 1000); !ok || got != 1000 {
		t.Fatalf("all-failed p1 = %v, %v; want 1000, true", got, ok)
	}
}

func TestBeyondIsSampleSupport(t *testing.T) {
	var l opLog
	for i := 0; i < 1000; i++ {
		l.ok(time.Millisecond)
	}
	if got := l.beyond(99); got != 10 {
		t.Fatalf("beyond(99) over 1000 ops = %d, want 10", got)
	}
	l.fail()
	if got := l.beyond(99); got != 10 {
		t.Fatalf("beyond(99) over 1001 ops = %d, want 10", got)
	}
}

func TestWindowsMedianOverWindows(t *testing.T) {
	start := time.Unix(0, 0)
	w := newWindows(start, 3*time.Second, time.Second)
	if len(w.ops) != 3 {
		t.Fatalf("3s in 1s windows gave %d windows", len(w.ops))
	}
	// Window 0: fast, window 1: one slow op among fast, window 2: failed.
	for i := 0; i < 100; i++ {
		due := start.Add(time.Duration(i) * time.Millisecond)
		w.ok(due, due.Add(time.Millisecond))
		due = start.Add(time.Second + time.Duration(i)*time.Millisecond)
		lat := 2 * time.Millisecond
		if i == 0 {
			lat = 500 * time.Millisecond
		}
		w.ok(due, due.Add(lat))
	}
	w.fail(start.Add(2500 * time.Millisecond))
	// An op due past the phase lands in the last window.
	w.fail(start.Add(10 * time.Second))
	ws := w.stats(1000)
	if got := medianWin(ws, winP50); got != 2 {
		t.Fatalf("median of window p50s (1, 2, miss) = %v, want 2", got)
	}
	if ws[1].p99 != 2 || ws[2].p99 != 1000 {
		t.Fatalf("window p99s = %v, %v; want 2 and the miss latency", ws[1].p99, ws[2].p99)
	}
	all := w.all()
	if all.attempted() != 202 || all.failed != 2 {
		t.Fatalf("all: attempted %d failed %d, want 202 and 2", all.attempted(), all.failed)
	}
	// Completions count where they finished: 100 in window 0, 99 in
	// window 1, and the slow one at 1.5s also in window 1.
	if w.done[0] != 100 || w.done[1] != 100 || w.done[2] != 0 {
		t.Fatalf("completions per window = %v", w.done)
	}
	if a, f := totals(ws); a != 202 || f != 2 {
		t.Fatalf("totals = %d, %d; want 202 and 2", a, f)
	}
	s := passSummary{closed: ws, closedWidth: w.width}
	if got := s.satRate(); got != 100 {
		t.Fatalf("median completion rate over windows with ops = %v, want 100/s", got)
	}
}

func TestWindowsMergeSameShape(t *testing.T) {
	start := time.Unix(0, 0)
	a := newWindows(start, 2*time.Second, time.Second)
	b := newWindows(start, 2*time.Second, time.Second)
	a.ok(start, start.Add(time.Millisecond))
	b.fail(start.Add(1500 * time.Millisecond))
	a.merge(&b)
	if a.ops[0].attempted() != 1 || a.ops[1].failed != 1 {
		t.Fatalf("merged windows: %+v", a.ops)
	}
}

func shardScrape(gen map[string]float64, vals map[string]float64) scrape {
	s := scrape{vals: map[counterKey]float64{}, gen: gen}
	for sh, v := range vals {
		s.vals[counterKey{"c", sh}] = v
	}
	return s
}

func TestDeltaOverPlainGrowth(t *testing.T) {
	a := shardScrape(map[string]float64{"0": 0, "1": 0}, map[string]float64{"0": 10, "1": 20})
	b := shardScrape(map[string]float64{"0": 0, "1": 0}, map[string]float64{"0": 15, "1": 26})
	if got := deltaOver(a, b, "c"); got != 11 {
		t.Fatalf("delta = %v, want 11", got)
	}
}

func TestDeltaOverShardRespawn(t *testing.T) {
	// Shard 1 respawned between the scrapes (generation 0 -> 1): its
	// counters restarted from zero, so its whole current value is growth
	// even though it reads higher than before.
	a := shardScrape(map[string]float64{"0": 0, "1": 0}, map[string]float64{"0": 10, "1": 5})
	b := shardScrape(map[string]float64{"0": 0, "1": 1}, map[string]float64{"0": 12, "1": 7})
	if got := deltaOver(a, b, "c"); got != 2+7 {
		t.Fatalf("delta across respawn = %v, want 9", got)
	}
	// A counter that went backwards restarted too, even when the
	// generation label was missed.
	c := shardScrape(map[string]float64{"0": 0, "1": 1}, map[string]float64{"0": 3, "1": 9})
	if got := deltaOver(b, c, "c"); got != 3+2 {
		t.Fatalf("delta after a backwards counter = %v, want 5", got)
	}
	// A shard added between scrapes counts from zero.
	d := shardScrape(map[string]float64{"0": 0, "1": 1, "2": 0}, map[string]float64{"0": 3, "1": 9, "2": 4})
	if got := deltaOver(c, d, "c"); got != 4 {
		t.Fatalf("delta with a new shard = %v, want 4", got)
	}
}

func TestGrowRestart(t *testing.T) {
	if grow(10, 15) != 5 || grow(10, 3) != 3 {
		t.Fatal("grow: want plain difference, or the whole value after a restart")
	}
}

func TestPoissonSeededAndRate(t *testing.T) {
	a := poisson(newRand(7), 1000, 10*time.Second)
	b := poisson(newRand(7), 1000, 10*time.Second)
	if len(a) != len(b) {
		t.Fatal("same seed gave different schedules")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different schedules")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("schedule not sorted")
		}
	}
	if n := float64(len(a)); math.Abs(n-10000) > 400 {
		t.Fatalf("1000/s for 10s drew %v arrivals", n)
	}
	if c := poisson(newRand(8), 1000, 10*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestAuditRules(t *testing.T) {
	resp := make([]byte, 8)
	for i := range resp {
		resp[i] = respByte(i, 8)
	}
	if r := audit(resp, 10, 5, 0, 1, 8); r != "" {
		t.Fatalf("clean response flagged: %s", r)
	}
	if r := audit(resp, 4, 5, 0, 1, 8); r == "" {
		t.Fatal("regressed stamp passed")
	}
	if r := audit(resp, 10, 5, 8, 1, 8); r == "" {
		t.Fatal("bytes beyond the requests sent passed")
	}
	bad := append([]byte(nil), resp...)
	bad[3] ^= 1
	if r := audit(bad, 10, 5, 0, 1, 8); r == "" {
		t.Fatal("corrupted payload passed")
	}
	// Split responses audit by stream offset.
	if r := audit(resp[4:], 10, 5, 4, 1, 8); r != "" {
		t.Fatalf("second half of a split response flagged: %s", r)
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("median")
	}
}
