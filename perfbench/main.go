// Command perfbench is the repository benchmark: it runs one workload
// against the real fleet / core stack, checks the outputs, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// the last line of standard output:
//
//	go build -o perfbench . && ./perfbench -workload lockstep -seed 1 -seconds 10 -trace 0
//
// Workloads (BENCHMARK.json gates lockstep and batch_lockstep and says
// why; ops fail on the other three today):
//
//	relaxed   2x2 fleet at SOCKET_RW on the pump splice plane, 2 keep-alive
//	          connections: open loop (seeded Poisson, pipelined) then closed loop
//	lockstep  the same traffic and fleet at BASE_LEVEL (the respawn posture)
//	churn     one request per connection, SOCKET_RW on the polled plane
//	batch     one core.MVEE at NONSOCKET_RW running the Fig 3 dedup profile
//	          back to back, each run paired with a native run
//	batch_lockstep  the same at the NO_IPMON level: every call lockstepped
//
// Every op carries a deadline; a lost, refused, timed-out, cut or
// audit-violating op is counted as failed and as a miss in the latency
// percentiles, never dropped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"remon/internal/mem"
)

// metricDef is one reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run. ok_frac is
// 1 - fail_frac: a share that is never 0 on a healthy workload. The
// open-loop lat_p99_ms is printed with the report lines instead: on a
// shared 2-vCPU host it flips between the timer-granularity tail and
// scheduler stalls from run to run, wider than any bound could allow.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"ok_frac", "share"},
	{"cpu_us_per_op", "us"},
	{"sat_ops_per_s", "1/s"},
	{"sat_p99_ms", "ms"},
	{"virt_overhead", "x"},
	{"mem_peak_mb", "MiB"}, // peak retained heap, see heapPeak
}

// perLayer are the traced run's single-layer metrics, in its JSON line.
// A layer a workload leaves idle reads 0 here; every time-valued metric
// in this list is measured on every workload.
var perLayer = []metricDef{
	{"vnet.backlog_full_per_conn", "count"},
	{"vnet.segments_per_op", "count"},
	{"fleet.refused_per_conn", "count"},
	{"fleet.admit_waits_per_conn", "count"},
	{"fleet.failovers", "count"},
	{"fleet.recoveries", "count"},
	{"fleet.goroutines_peak", "count"},
	{"ikb.calls_per_op", "count"},
	{"ikb.fastpath_share", "share"},
	{"ipmon.unmonitored_per_op", "count"},
	{"ipmon.forwarded_per_op", "count"},
	{"rb.wakes_per_call", "count"},
	{"rb.wake_checks_per_call", "count"},
	{"rb.batched_share", "share"},
	{"rb.lag_waits", "count"},
	{"rb.resets", "count"},
	{"ghumvee.monitored_per_op", "count"},
	{"ghumvee.stops_per_op", "count"},
	{"ghumvee.wakeups_per_call", "count"},
	{"ghumvee.compared_bytes_per_op", "bytes"},
	{"ghumvee.divergences", "count"},
	{"setup.new_ms", "ms"},
	{"core.monitor_share", "share"},
	{"arena.hit_share", "share"},
	{"rt.alloc_bytes_per_op", "bytes"},
	{"rt.gc_per_kop", "count"},
	{"trace.overhead_lat_p50_ms", "ms"},
	{"trace.overhead_cpu_us_per_op", "us"},
	{"trace.overhead_sat_ops_per_s", "1/s"},
}

// perLayerLines are per-layer timings only serving or only batch
// workloads exercise: printed with the traced run's report lines, not in
// its JSON line, where an idle layer would read a constant 0 time.
var perLayerLines = []metricDef{
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"vnet.send_us_p50", "us"},
	{"vnet.connect_us_p50", "us"},
	{"fleet.first_byte_ms_p50", "ms"},
	{"fleet.first_byte_ms_p99", "ms"},
	{"core.run_s", "s"},
	{"core.native_run_s", "s"},
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	violations        int // output-integrity violations (phantom, corrupt, regressed)
	divergences       int // divergence verdicts on benign traffic
	tokenViolations   int
	reasons           []string
	setups            []float64 // set-up to first served op, s
	builds            []float64 // the fleet.New or core.New part of each set-up, s
	values            map[string]float64
	samples           map[string]int // sample count behind a metric
	info              []string
	tr                *tracer
	heap              heapPeak
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	if n > 0 {
		r.samples[name] = n
	}
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// layerDeltas is the growth of every layer counter over a traced pass.
type layerDeltas struct {
	ops                                       float64
	intercepted, routedIPMon                  float64
	dispatched, unmonitored, forwarded        float64
	wakes, wakeChecks, batched, lagWaits      float64
	rbResets                                  float64
	monitored, stops, wakeups, compared, divs float64
	tokenViolations                           float64
}

// setLayers fills the monitoring-layer metrics from counter deltas.
func (r *result) setLayers(d layerDeltas) {
	r.set("ikb.calls_per_op", ratio(d.intercepted, d.ops), 0)
	r.set("ikb.fastpath_share", ratio(d.routedIPMon, d.intercepted), 0)
	r.set("ipmon.unmonitored_per_op", ratio(d.unmonitored, d.ops), 0)
	r.set("ipmon.forwarded_per_op", ratio(d.forwarded, d.ops), 0)
	r.set("rb.wakes_per_call", ratio(d.wakes, d.dispatched), 0)
	r.set("rb.wake_checks_per_call", ratio(d.wakeChecks, d.dispatched), 0)
	r.set("rb.batched_share", ratio(d.batched, d.unmonitored), 0)
	r.set("rb.lag_waits", d.lagWaits, 0)
	r.set("rb.resets", d.rbResets, 0)
	r.set("ghumvee.monitored_per_op", ratio(d.monitored, d.ops), 0)
	r.set("ghumvee.stops_per_op", ratio(d.stops, d.ops), 0)
	r.set("ghumvee.wakeups_per_call", ratio(d.wakeups, d.monitored), 0)
	r.set("ghumvee.compared_bytes_per_op", ratio(d.compared, d.ops), 0)
	r.set("ghumvee.divergences", d.divs, 0)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runDeadline bounds a whole run, set-up included; past it the run exits
// non-zero rather than hang.
const runDeadline = 160 * time.Second

func main() {
	workload := flag.String("workload", "", "relaxed, lockstep, churn, batch or batch_lockstep")
	seed := flag.Uint64("seed", 1, "seed for arrival schedules and the fleet/MVEE Seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	spanDir := flag.String("spans", ".", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds <= 0 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be in (0, 60]")
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	// The fleet and MVEE seed derived from the workload seed is never 0,
	// which fleet.Config would replace with its default seed.
	sysSeed := *seed*0x9E3779B97F4A7C15 + 1

	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; aborting\n", runDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res := &result{values: map[string]float64{}, samples: map[string]int{}}
	arena0 := mem.ArenaSnapshot()
	var err error
	if spec, ok := serveSpecs[*workload]; ok {
		err = runServe(spec, sysSeed, *seconds, *trace == 1, res)
	} else if level, ok := batchSpecs[*workload]; ok {
		err = runBatch(level, sysSeed, *seconds, *trace == 1, res)
	} else {
		err = fmt.Errorf("unknown workload %q (want relaxed, lockstep, churn, batch or batch_lockstep)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	arena1 := mem.ArenaSnapshot()
	hits, misses := float64(arena1.Hits-arena0.Hits), float64(arena1.Misses-arena0.Misses)
	res.set("arena.hit_share", ratio(hits, hits+misses), int(hits+misses))

	res.attempted += res.tokenViolations
	res.failed += res.tokenViolations
	okFrac := 1 - ratio(float64(res.failed), float64(res.attempted))
	res.set("ok_frac", okFrac, res.attempted)
	res.set("setup_s", median(res.setups), len(res.setups))
	res.set("setup.new_ms", median(res.builds)*1e3, len(res.builds))
	res.heap.collect()
	res.set("mem_peak_mb", res.heap.mb(), 0)
	correct := res.violations == 0 && res.attempted > 0

	if *trace == 1 && res.tr != nil {
		path := filepath.Join(*spanDir, "spans-"+*workload+".csv")
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		res.infof("spans: %d written to %s", len(res.tr.spans), path)
	}
	report(*workload, *seed, *trace == 1, res, correct)
}

// report prints the human-readable lines, then the JSON result line.
func report(workload string, seed uint64, trace bool, res *result, correct bool) {
	fmt.Printf("workload %s seed %d trace %v (GOMAXPROCS %d)\n", workload, seed, trace, runtime.GOMAXPROCS(0))
	fmt.Printf("checks: attempted %d failed %d fail_frac %.6f integrity_violations %d divergences_on_benign %d token_violations %d correct %v\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)),
		res.violations, res.divergences, res.tokenViolations, correct)
	for _, reason := range res.reasons {
		fmt.Println("  failure:", reason)
	}
	for _, line := range res.info {
		fmt.Println(line)
	}
	line := func(d metricDef) float64 {
		v := res.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-32s %14.6f %-6s n=%d\n", d.name, v, d.unit, res.samples[d.name])
		return v
	}
	defs := endToEnd
	if trace {
		defs = perLayer
		for _, d := range perLayerLines {
			line(d)
		}
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": line(d), "unit": d.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
