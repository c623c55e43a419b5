package main

import (
	"fmt"
	"runtime"
	"time"

	"remon/internal/core"
	"remon/internal/ipmon"
	"remon/internal/libc"
	"remon/internal/policy"
	"remon/internal/workload"
)

const (
	// batchIterations per worker thread: 4 dedup threads x 8000 calls
	// make one program run ~32k syscalls.
	batchIterations = 8000
	batchReplicas   = 2
	// batchPartitions matches the Fig 3 experiment driver's RB partitions.
	batchPartitions = 16
	// runTimeout bounds one program run; a run that misses it is shut
	// down and counted as failed.
	runTimeout = 20 * time.Second
	// runMiss is the latency a failed run ranks at in the percentiles.
	runMiss = float64(runTimeout) / 1e6
	// batchWindow groups program runs (~0.3s each, plus the native
	// pair) for the per-window percentiles.
	batchWindow = 3 * time.Second
)

func dedupProfile() (workload.Profile, error) {
	for _, p := range workload.Fig3Profiles(batchIterations) {
		if p.Name == "dedup" {
			return p, nil
		}
	}
	return workload.Profile{}, fmt.Errorf("no dedup profile in Fig 3")
}

// batchSpecs are the batch workloads: the same MVEE and program, with
// IP-MON's relaxation at the Fig 3 level or switched off.
var batchSpecs = map[string]policy.Level{
	"batch":          policy.NonsocketRWLevel,
	"batch_lockstep": policy.LevelNone,
}

func batchConfig(level policy.Level, seed uint64) core.Config {
	return core.Config{
		Mode: core.ModeReMon, Replicas: batchReplicas, Policy: level,
		Partitions: batchPartitions, Seed: seed,
	}
}

// runBounded runs prog on m with a deadline. A run that misses it is shut
// down; if it still does not unwind it is abandoned and nil returned.
func runBounded(m *core.MVEE, prog libc.Program) *core.Report {
	done := make(chan *core.Report, 1)
	go func() { done <- m.Run(prog) }()
	select {
	case rep := <-done:
		return rep
	case <-time.After(runTimeout):
	}
	m.Shutdown("benchmark run deadline")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	return nil
}

// grow is a cumulative counter's growth from prev to cur; a counter that
// went backwards restarted from zero, so all of cur is growth.
func grow(prev, cur uint64) float64 {
	if cur < prev {
		return float64(cur)
	}
	return float64(cur - prev)
}

// reportDelta is the growth of a replica set's counters between two
// Reports of the same MVEE (prev is the zero Report for a fresh one).
func reportDelta(prev, cur *core.Report) layerDeltas {
	var d layerDeltas
	d.intercepted = grow(prev.Broker.Intercepted, cur.Broker.Intercepted)
	d.routedIPMon = grow(prev.Broker.RoutedIPMon, cur.Broker.RoutedIPMon)
	for i, s := range cur.IPMon {
		var p ipmon.Stats
		if i < len(prev.IPMon) {
			p = prev.IPMon[i]
		}
		d.dispatched += grow(p.Dispatched, s.Dispatched)
		d.unmonitored += grow(p.Unmonitored, s.Unmonitored)
		d.forwarded += grow(p.ForwardedPolicy, s.ForwardedPolicy) + grow(p.ForwardedSignal, s.ForwardedSignal) +
			grow(p.ForwardedTooBig, s.ForwardedTooBig)
	}
	d.wakes = grow(prev.RB.Wakes, cur.RB.Wakes)
	d.wakeChecks = grow(prev.RB.WakeChecks, cur.RB.WakeChecks)
	d.batched = grow(prev.RB.Batched, cur.RB.Batched)
	d.lagWaits = grow(prev.RB.LagWaits, cur.RB.LagWaits)
	d.rbResets = grow(prev.Monitor.RBResets, cur.Monitor.RBResets)
	d.monitored = grow(prev.Monitor.MonitoredCalls, cur.Monitor.MonitoredCalls)
	d.stops = grow(prev.Monitor.PtraceStops, cur.Monitor.PtraceStops)
	d.wakeups = grow(prev.Monitor.Wakeups, cur.Monitor.Wakeups)
	d.compared = grow(prev.Monitor.BytesCompared, cur.Monitor.BytesCompared)
	d.divs = grow(prev.Monitor.Divergences, cur.Monitor.Divergences)
	d.tokenViolations = grow(prev.Broker.TokenViolations, cur.Broker.TokenViolations)
	return d
}

func (d *layerDeltas) add(o layerDeltas) {
	d.intercepted += o.intercepted
	d.routedIPMon += o.routedIPMon
	d.dispatched += o.dispatched
	d.unmonitored += o.unmonitored
	d.forwarded += o.forwarded
	d.wakes += o.wakes
	d.wakeChecks += o.wakeChecks
	d.batched += o.batched
	d.lagWaits += o.lagWaits
	d.rbResets += o.rbResets
	d.monitored += o.monitored
	d.stops += o.stops
	d.wakeups += o.wakeups
	d.compared += o.compared
	d.divs += o.divs
	d.tokenViolations += o.tokenViolations
}

// batchPass is one measured stretch of back-to-back program runs.
type batchPass struct {
	runs              windows   // monitored program runs, by start time
	cpuPerCall        []float64 // per successful run: process CPU µs per syscall
	callRate          []float64 // per successful run: syscalls per host second
	syscalls          float64   // completed monitored syscalls
	attempted, failed int       // syscalls
	monHost, natHost  time.Duration
	virt              []float64 // monitored / native virtual duration per pair
	layers            layerDeltas
	allocBytes        uint64 // allocated during monitored runs
	gcs               uint32 // GC cycles during monitored runs
}

// batchRun owns the monitored replica set across passes.
type batchRun struct {
	heap    *heapPeak
	level   policy.Level
	seed    uint64
	prof    workload.Profile
	m       *core.MVEE
	prev    *core.Report // last Report of m; zero for a fresh m
	tr      *tracer
	planned int // syscalls one program run issues (from its native run)
	reasons map[string]int
	rebuilt int
	// violations counts monitored runs whose syscall count differs from
	// the native run's: replicas that did not run the program faithfully.
	violations int
}

func (b *batchRun) build() (time.Duration, error) {
	t0 := time.Now()
	sp := b.tr.begin("core.New", -1, -1)
	m, err := core.New(batchConfig(b.level, b.seed))
	b.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("building MVEE: %w", err)
	}
	b.m, b.prev = m, &core.Report{}
	return time.Since(t0), nil
}

func (b *batchRun) close() {
	if b.m != nil {
		sp := b.tr.begin("core.MVEE.Close", -1, -1)
		b.m.Close()
		b.tr.end(sp)
		b.m = nil
	}
}

func (b *batchRun) pass(length time.Duration) (*batchPass, error) {
	ps := &batchPass{runs: newWindows(time.Now(), length, batchWindow)}
	end := time.Now().Add(length)
	var op int64
	for time.Now().Before(end) {
		op++
		prog := workload.SyntheticProgram(b.prof)
		nsp := b.tr.begin("core.RunProgram.native", -1, op)
		t0 := time.Now()
		nat, err := core.RunProgram(core.Config{Mode: core.ModeNative, Seed: b.seed}, prog)
		ps.natHost += time.Since(t0)
		b.tr.end(nsp)
		if err != nil {
			return nil, fmt.Errorf("native run: %w", err)
		}
		b.planned = int(nat.Syscalls)

		if b.m == nil {
			if _, err := b.build(); err != nil {
				return nil, err
			}
		}
		b.heap.collect()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		sp := b.tr.begin("core.MVEE.Run", -1, op)
		cpu0, t0 := cpuTime(), time.Now()
		rep := runBounded(b.m, prog)
		t1 := time.Now()
		took, cpu := t1.Sub(t0), cpuTime()-cpu0
		ps.monHost += took
		b.tr.end(sp)
		runtime.ReadMemStats(&ms1)
		ps.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		ps.gcs += ms1.NumGC - ms0.NumGC
		ps.attempted += b.planned
		switch {
		case rep == nil:
			ps.runs.fail(t0)
			ps.failed += b.planned
			b.note("run missed its deadline; replica set abandoned")
			b.m = nil
			continue
		case rep.Verdict.Diverged:
			ps.runs.fail(t0)
			ps.failed += b.planned
			b.note("divergence verdict on benign batch run: " + rep.Verdict.Reason)
			ps.layers.add(reportDelta(b.prev, rep))
			b.close()
			b.rebuilt++
			continue
		}
		// Every replica issues the program's calls plus its ipmon_register.
		if want := uint64((b.planned + 1) * batchReplicas); rep.Syscalls != want {
			ps.runs.fail(t0)
			ps.failed += b.planned
			b.note(fmt.Sprintf("monitored run issued %d syscalls, want %d", rep.Syscalls, want))
			b.violations++
			ps.layers.add(reportDelta(b.prev, rep))
			b.prev = rep
			continue
		}
		ps.runs.ok(t0, t1)
		ps.syscalls += float64(b.planned)
		ps.cpuPerCall = append(ps.cpuPerCall, float64(cpu)/1e3/float64(b.planned))
		ps.callRate = append(ps.callRate, float64(b.planned)/took.Seconds())
		ps.virt = append(ps.virt, float64(rep.Duration)/float64(nat.Duration))
		ps.layers.add(reportDelta(b.prev, rep))
		b.prev = rep
	}
	ps.layers.ops = ps.syscalls
	return ps, nil
}

func (b *batchRun) note(reason string) { b.reasons[reason]++ }

// runBatch runs the batch workload and fills res.
func runBatch(level policy.Level, seed uint64, seconds float64, trace bool, res *result) error {
	prof, err := dedupProfile()
	if err != nil {
		return err
	}
	b := &batchRun{heap: &res.heap, level: level, seed: seed, prof: prof, reasons: map[string]int{}}
	if trace {
		b.tr = newTracer()
	}
	var news []float64
	for i := 0; i < setupBuilds; i++ {
		b.heap.collect()
		d, err := b.build()
		if err != nil {
			return err
		}
		news = append(news, d.Seconds())
		if i < setupBuilds-1 {
			b.close()
		}
	}
	defer b.close()
	res.setups, res.builds = news, news
	length := time.Duration(seconds * float64(time.Second))

	var ps, base *batchPass
	if trace {
		tr := b.tr
		b.tr = nil
		if base, err = b.pass(length / 2); err != nil {
			return err
		}
		b.tr = tr
		ps, err = b.pass(length / 2)
	} else {
		ps, err = b.pass(length)
	}
	if err != nil {
		return err
	}
	for _, p := range []*batchPass{base, ps} {
		if p == nil {
			continue
		}
		res.attempted += p.attempted
		res.failed += p.failed
		res.tokenViolations += int(p.layers.tokenViolations)
	}
	for reason, n := range b.reasons {
		res.reasons = append(res.reasons, fmt.Sprintf("%d runs: %s", n, reason))
	}
	res.divergences = int(ps.layers.divs)
	if base != nil {
		res.divergences += int(base.layers.divs)
	}
	res.tr = b.tr
	res.violations += b.violations

	if trace {
		res.batchLayers(b, base, ps)
		return nil
	}
	all := ps.runs.all()
	runs := all.attempted()
	ws := ps.runs.stats(runMiss)
	p99 := medianWin(ws, winP99)
	res.set("lat_p50_ms", medianWin(ws, winP50), runs)
	res.infof("lat_p99_ms %.6f ms (n=%d; equal to sat_p99_ms on batch)", p99, runs)
	res.set("sat_p99_ms", p99, runs)
	res.set("cpu_us_per_op", median(ps.cpuPerCall), len(ps.cpuPerCall))
	res.set("sat_ops_per_s", median(ps.callRate), len(ps.callRate))
	res.set("virt_overhead", median(ps.virt), len(ps.virt))
	res.infof("batch: %d monitored dedup runs of %d syscalls, each paired with a native run, in %d windows of %v", runs, b.planned, len(ps.runs.ops), batchWindow)
	res.infof("lat_* and sat_p99_ms are monitored run host ms, per-window percentile then median over windows; failed runs count as misses; cpu_us_per_op and sat_ops_per_s are medians over runs")
	res.infof("virt_overhead per pair: min %.4f median %.4f max %.4f", pct(ps.virt, 0.0001), median(ps.virt), pct(ps.virt, 100))
	res.infof("set-up (core.New) s: %v; replica sets rebuilt after a failed run: %d", news, b.rebuilt)
	return nil
}

// batchLayers fills the per-layer metrics of the traced pass ps.
func (r *result) batchLayers(b *batchRun, base, ps *batchPass) {
	r.setLayers(ps.layers)
	all := ps.runs.all()
	runs := float64(all.attempted())
	r.set("core.run_s", ratio(ps.monHost.Seconds(), runs), int(runs))
	r.set("core.native_run_s", ratio(ps.natHost.Seconds(), runs), int(runs))
	r.set("core.monitor_share", ratio(ps.monHost.Seconds()-ps.natHost.Seconds(), ps.monHost.Seconds()), 0)
	r.set("rt.alloc_bytes_per_op", ratio(float64(ps.allocBytes), ps.syscalls), 0)
	r.set("rt.gc_per_kop", ratio(1000*float64(ps.gcs), ps.syscalls), 0)
	r.set("trace.overhead_lat_p50_ms", medianWin(ps.runs.stats(runMiss), winP50)-medianWin(base.runs.stats(runMiss), winP50), 0)
	r.set("trace.overhead_cpu_us_per_op", median(ps.cpuPerCall)-median(base.cpuPerCall), 0)
	r.set("trace.overhead_sat_ops_per_s", median(ps.callRate)-median(base.callRate), 0)
}
