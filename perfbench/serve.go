package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/fleet"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/telemetry"
	"remon/internal/vnet"
)

const (
	// clients is both the generator goroutine count (nproc on the
	// reference 2-core host) and the connection count of every
	// keep-alive and closed-loop phase.
	clients = 2
	// opTimeout is every op's deadline: a response not complete this
	// long after the op was due fails the op, so a stalled connection or
	// replica ends as counted failures instead of a hung run.
	opTimeout = time.Second
	// missMs is the latency a failed op ranks at in the percentiles.
	missMs = float64(opTimeout) / 1e6
	// closedWindow is the requests each keep-alive connection keeps
	// outstanding in the closed-loop phase.
	closedWindow = 4
	// setupBuilds is how many times a run builds its system to take the
	// median set-up time; every build but the last is torn down.
	setupBuilds = 21
	// statWindow is the width of the windows latency, CPU and throughput
	// are taken over before the median across windows is reported.
	statWindow = time.Second
	// cycles is how many open-then-closed cycles a run measures, after a
	// warm-up cycle; the fleet's first cycle after set-up runs in a
	// different regime from every later one.
	cycles = 3
)

// serveSpec is one serving workload: the fleet it builds and the traffic
// it offers.
type serveSpec struct {
	cfg func(seed uint64) fleet.Config
	// openRate is the open-loop phase's offered rate: requests/s spread
	// over the keep-alive connections, or new connections/s for churn.
	openRate float64
	// churn makes every op a whole connection (connect, one request,
	// response, close) instead of one request on a keep-alive connection.
	churn bool
}

func level(l policy.Level) *policy.Level { return &l }

var serveSpecs = map[string]serveSpec{
	"relaxed": {
		openRate: 5000,
		cfg: func(seed uint64) fleet.Config {
			return fleet.Config{Shards: 2, Replicas: 2, Policy: level(policy.SocketRWLevel), Seed: seed}
		},
	},
	"lockstep": {
		openRate: 5000,
		cfg: func(seed uint64) fleet.Config {
			return fleet.Config{Shards: 2, Replicas: 2, Policy: level(policy.BaseLevel), Seed: seed}
		},
	},
	"churn": {
		openRate: 500, churn: true,
		cfg: func(seed uint64) fleet.Config {
			return fleet.Config{
				Shards: 2, Replicas: 2, Policy: level(policy.SocketRWLevel), Seed: seed,
				SpliceLoops: clients, DisableRouteLog: true,
			}
		},
	},
}

// poisson draws a seeded Poisson arrival schedule: sorted offsets from
// phase start at the given rate, covering length.
func poisson(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	var out []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= length {
			return out
		}
		out = append(out, at)
	}
}

// respByte is the byte the fleet's shard server puts at offset k of its
// response stream.
func respByte(k, respSize int) byte { return byte('a' + (k%respSize)%26) }

// audit checks one response segment the way chaos.Gen audits a
// connection: bytes only for requests already sent (no phantoms),
// non-decreasing arrival stamps, and the server's exact payload. It
// returns the violated rule or "".
func audit(data []byte, at, lastArrive model.Duration, rx, sent, respSize int) string {
	if at < lastArrive {
		return "arrival stamp regressed"
	}
	if rx+len(data) > sent*respSize {
		return "phantom bytes for a request never sent"
	}
	for i, b := range data {
		if b != respByte(rx+i, respSize) {
			return "response payload corrupted"
		}
	}
	return ""
}

// serveRun is the state shared by one run's generator goroutines.
type serveRun struct {
	spec     serveSpec
	heap     *heapPeak
	f        *fleet.Fleet
	net      *vnet.Network
	addr     string
	respSize int
	req      []byte
	vbase    time.Time // host instant mapped to virtual time zero
	tr       *tracer
	opSeq    atomic.Int64

	backlogFull atomic.Int64 // TryConnect refusals with ErrBacklogFull
	conns       atomic.Int64 // connections established

	mu         sync.Mutex
	reasons    map[string]int // failure reason -> failed ops
	violations map[string]int // output-integrity violations
}

// vnow maps host time onto the virtual clock the client stamps its sends
// with, so server replicas (which sync to arrival stamps) track the
// offered schedule and a response's stamp minus its request's stamp is
// the request's virtual service latency.
func (w *serveRun) vnow() model.Duration { return model.Duration(time.Since(w.vbase)) }

func (w *serveRun) note(reason string, ops int) {
	if ops <= 0 {
		return
	}
	w.mu.Lock()
	w.reasons[reason] += ops
	w.mu.Unlock()
}

func (w *serveRun) violate(reason string) {
	w.mu.Lock()
	w.violations[reason]++
	w.mu.Unlock()
}

// clientStats is one generator goroutine's record of one phase.
type clientStats struct {
	win   windows
	late  []float64 // ms the generator sent after the op was due
	first []float64 // ms from op start to first response byte
	virt  []float64 // virtual service latency, µs
}

func (c *clientStats) merge(o *clientStats) {
	c.win.merge(&o.win)
	c.late = append(c.late, o.late...)
	c.first = append(c.first, o.first...)
	c.virt = append(c.virt, o.virt...)
}

// tryConnect is one traced non-blocking connect. It returns the conn,
// the virtual time it was attempted at and the virtual time the
// handshake completes.
func (w *serveRun) tryConnect(op int64, parent int32) (*vnet.Conn, model.Duration, model.Duration, error) {
	vt := w.vnow()
	t0 := time.Now()
	c, est, err := w.net.TryConnect(w.addr, vt)
	w.tr.add("vnet.TryConnect", t0, parent, op)
	switch {
	case err == nil:
		w.conns.Add(1)
	case errors.Is(err, vnet.ErrBacklogFull):
		w.backlogFull.Add(1)
	}
	return c, vt, est, err
}

// dial opens one front connection, retrying a full accept backlog with
// exponential backoff (SYN retransmission) until deadline.
func (w *serveRun) dial(deadline time.Time, op int64, parent int32) (*vnet.Conn, error) {
	backoff := time.Millisecond
	for {
		c, _, _, err := w.tryConnect(op, parent)
		if !errors.Is(err, vnet.ErrBacklogFull) || time.Now().Add(backoff).After(deadline) {
			return c, err
		}
		time.Sleep(backoff)
		if backoff < 16*time.Millisecond {
			backoff *= 2
		}
	}
}

// send is one traced Send.
func (w *serveRun) send(c *vnet.Conn, at model.Duration, op int64, parent int32) error {
	t0 := time.Now()
	_, err := c.Send(w.req, at)
	w.tr.add("vnet.Send", t0, parent, op)
	return err
}

// recv is one non-blocking RecvSeg, traced when it returned anything.
func (w *serveRun) recv(c *vnet.Conn, op int64, parent int32) ([]byte, model.Duration, error) {
	t0 := time.Now()
	data, at, err := c.RecvSeg(false)
	if !errors.Is(err, vnet.ErrWouldBlock) {
		w.tr.add("vnet.RecvSeg", t0, parent, op)
	}
	return data, at, err
}

// pending is one request in flight on a keep-alive connection.
type pending struct {
	id       int64
	span     int32
	due      time.Time // latency origin
	sent     time.Time
	vsent    model.Duration
	deadline time.Time
	first    time.Time
}

// pconn is one keep-alive client connection and its in-order request
// queue. It reconnects after the fleet cuts it or an op times out.
type pconn struct {
	w          *serveRun
	p          *vnet.Poller
	c          *vnet.Conn
	out        []pending
	sent, done int // requests sent / responses completed on c
	rx         int // response bytes received on c
	lastArrive model.Duration
	evs        []vnet.Event
}

func newPconn(w *serveRun) *pconn {
	return &pconn{w: w, p: vnet.NewPoller(), evs: make([]vnet.Event, 4)}
}

func (pc *pconn) close() {
	if pc.c != nil {
		pc.p.RemoveConn(pc.c)
		pc.c.Close()
		pc.c = nil
	}
	pc.p.Close()
}

// drop fails every outstanding request with reason and discards the
// connection; the next request reconnects.
func (pc *pconn) drop(reason string, st *clientStats) {
	for _, o := range pc.out {
		st.win.fail(o.due)
		pc.w.tr.end(o.span)
	}
	pc.w.note(reason, len(pc.out))
	pc.out = pc.out[:0]
	if pc.c != nil {
		pc.p.RemoveConn(pc.c)
		pc.c.Close()
		pc.c = nil
	}
	pc.sent, pc.done, pc.rx, pc.lastArrive = 0, 0, 0, 0
}

// issue sends one request due at due. A request that cannot be sent
// fails at once.
func (pc *pconn) issue(due time.Time, st *clientStats, open bool) {
	w := pc.w
	id := w.opSeq.Add(1)
	span := w.tr.beginAt("op", due, -1, id)
	fail := func(reason string) {
		st.win.fail(due)
		w.tr.end(span)
		w.note(reason, 1)
	}
	if pc.c == nil {
		c, err := w.dial(due.Add(opTimeout), id, span)
		if err == nil {
			err = pc.p.AddConn(c, 0)
		}
		if err != nil {
			fail("connect: " + err.Error())
			return
		}
		pc.c = c
	}
	vs := w.vnow()
	if err := w.send(pc.c, vs, id, span); err != nil {
		fail("send: " + err.Error())
		pc.drop("send: "+err.Error(), st)
		return
	}
	now := time.Now()
	if open {
		st.late = append(st.late, float64(now.Sub(due))/1e6)
	}
	pc.out = append(pc.out, pending{id: id, span: span, due: due, sent: now, vsent: vs, deadline: due.Add(opTimeout)})
	pc.sent++
}

// drain consumes and audits every readable response segment; it reports
// how many requests it completed.
func (pc *pconn) drain(st *clientStats, open bool) (completed int) {
	w := pc.w
	for pc.c != nil {
		var head int64 = -1
		var parent int32 = -1
		if len(pc.out) > 0 {
			head, parent = pc.out[0].id, pc.out[0].span
		}
		data, at, err := w.recv(pc.c, head, parent)
		if errors.Is(err, vnet.ErrWouldBlock) {
			return completed
		}
		if err != nil {
			pc.drop("recv: "+err.Error(), st)
			return completed
		}
		if data == nil {
			pc.drop("recv: connection closed by the fleet", st)
			return completed
		}
		now := time.Now()
		if reason := audit(data, at, pc.lastArrive, pc.rx, pc.sent, w.respSize); reason != "" {
			w.violate(reason)
			pc.drop("audit: "+reason, st)
			return completed
		}
		pc.lastArrive = at
		if len(pc.out) > 0 && pc.out[0].first.IsZero() {
			pc.out[0].first = now
		}
		pc.rx += len(data)
		for len(pc.out) > 0 && pc.rx >= (pc.done+1)*w.respSize {
			o := pc.out[0]
			pc.out = pc.out[1:]
			pc.done++
			completed++
			st.win.ok(o.due, now)
			st.first = append(st.first, float64(o.first.Sub(o.sent))/1e6)
			if open {
				st.virt = append(st.virt, float64(at-o.vsent)/1e3)
			}
			w.tr.end(o.span)
			if len(pc.out) > 0 && pc.rx > pc.done*w.respSize {
				pc.out[0].first = now
			}
		}
	}
	return completed
}

// wait parks until the connection is readable or wake passes.
func (pc *pconn) wait(wake time.Time) {
	if pc.c == nil {
		if d := time.Until(wake); d > 0 {
			time.Sleep(d)
		}
		return
	}
	pc.p.WaitDeadline(pc.evs, wake)
}

// expire fails the connection once its oldest request is past deadline.
func (pc *pconn) expire(now time.Time, st *clientStats) {
	if len(pc.out) > 0 && now.After(pc.out[0].deadline) {
		pc.drop("timeout: no response within the op deadline", st)
	}
}

// openLoop sends on the seeded schedule regardless of outstanding
// responses (pipelining), timing each request from its due time.
func (pc *pconn) openLoop(sched []time.Duration, start time.Time, st *clientStats) {
	hardEnd := start.Add(sched[len(sched)-1]).Add(opTimeout)
	next := 0
	for {
		now := time.Now()
		for next < len(sched) && !now.Before(start.Add(sched[next])) {
			pc.issue(start.Add(sched[next]), st, true)
			next++
		}
		pc.drain(st, true)
		pc.expire(time.Now(), st)
		if next == len(sched) && len(pc.out) == 0 {
			return
		}
		wake := hardEnd
		if next < len(sched) {
			wake = start.Add(sched[next])
		}
		if len(pc.out) > 0 && pc.out[0].deadline.Before(wake) {
			wake = pc.out[0].deadline
		}
		pc.wait(wake)
	}
}

// closedLoop keeps closedWindow requests outstanding until phaseEnd, then
// waits out the stragglers.
func (pc *pconn) closedLoop(phaseEnd time.Time, st *clientStats) {
	for {
		now := time.Now()
		for now.Before(phaseEnd) && len(pc.out) < closedWindow {
			pc.issue(now, st, false)
			now = time.Now()
		}
		if pc.drain(st, false) > 0 {
			continue // refill the window before parking
		}
		pc.expire(time.Now(), st)
		now = time.Now()
		if !now.Before(phaseEnd) && len(pc.out) == 0 {
			return
		}
		if now.Before(phaseEnd) && len(pc.out) < closedWindow {
			continue // a timed-out window refills on a new connection
		}
		wake := phaseEnd.Add(opTimeout)
		if len(pc.out) > 0 {
			wake = pc.out[0].deadline
		}
		pc.wait(wake)
	}
}

// shortConn is one churn op: a connection carrying one request.
type shortConn struct {
	id         int64
	span       int32
	c          *vnet.Conn
	due, start time.Time
	vconn      model.Duration
	deadline   time.Time
	retryAt    time.Time
	backoff    time.Duration
	rx         int
	first      time.Time
	lastArrive model.Duration
	over       bool
}

// churner drives churn ops from one generator goroutine over one poller.
type churner struct {
	w      *serveRun
	p      *vnet.Poller
	active map[uint64]*shortConn
	evs    []vnet.Event
	st     *clientStats
	open   bool
	end    time.Time
}

func newChurner(w *serveRun, st *clientStats, open bool, end time.Time) *churner {
	return &churner{w: w, p: vnet.NewPoller(), active: map[uint64]*shortConn{}, evs: make([]vnet.Event, 64),
		st: st, open: open, end: end}
}

func (ch *churner) finish(sc *shortConn, reason string) {
	w := ch.w
	sc.over = true
	if sc.c != nil {
		ch.p.RemoveConn(sc.c)
		sc.c.Close()
	}
	delete(ch.active, uint64(sc.id))
	w.tr.end(sc.span)
	if reason != "" {
		ch.st.win.fail(sc.due)
		w.note(reason, 1)
		return
	}
	ch.st.win.ok(sc.due, time.Now())
	ch.st.first = append(ch.st.first, float64(sc.first.Sub(sc.start))/1e6)
	if ch.open {
		ch.st.virt = append(ch.st.virt, float64(sc.lastArrive-sc.vconn)/1e3)
	}
}

func (ch *churner) launch(due time.Time) {
	id := ch.w.opSeq.Add(1)
	now := time.Now()
	sc := &shortConn{id: id, due: due, start: now, deadline: due.Add(opTimeout), backoff: time.Millisecond}
	sc.span = ch.w.tr.beginAt("op", due, -1, id)
	if ch.open {
		ch.st.late = append(ch.st.late, float64(now.Sub(due))/1e6)
	}
	ch.active[uint64(id)] = sc
	ch.connect(sc)
}

// connect makes one non-blocking connect attempt; a full backlog re-arms
// it with exponential backoff, any other refusal fails the op.
func (ch *churner) connect(sc *shortConn) {
	w := ch.w
	c, vt, est, err := w.tryConnect(sc.id, sc.span)
	if errors.Is(err, vnet.ErrBacklogFull) {
		sc.retryAt = time.Now().Add(sc.backoff)
		if sc.backoff < 16*time.Millisecond {
			sc.backoff *= 2
		}
		return
	}
	if err != nil {
		ch.finish(sc, "connect: "+err.Error())
		return
	}
	sc.c, sc.vconn, sc.retryAt = c, vt, time.Time{}
	if err := ch.p.AddConn(c, uint64(sc.id)); err != nil {
		ch.finish(sc, "poller: "+err.Error())
		return
	}
	// The request leaves once the handshake completes in virtual time.
	if now := w.vnow(); now > est {
		est = now
	}
	if err := w.send(c, est, sc.id, sc.span); err != nil {
		ch.finish(sc, "send: "+err.Error())
		return
	}
	ch.drain(sc)
}

func (ch *churner) drain(sc *shortConn) {
	w := ch.w
	for !sc.over {
		data, at, err := w.recv(sc.c, sc.id, sc.span)
		if errors.Is(err, vnet.ErrWouldBlock) {
			return
		}
		if err != nil {
			ch.finish(sc, "recv: "+err.Error())
			return
		}
		if data == nil {
			ch.finish(sc, "recv: connection closed by the fleet")
			return
		}
		if reason := audit(data, at, sc.lastArrive, sc.rx, 1, w.respSize); reason != "" {
			w.violate(reason)
			ch.finish(sc, "audit: "+reason)
			return
		}
		if sc.first.IsZero() {
			sc.first = time.Now()
		}
		sc.lastArrive = at
		sc.rx += len(data)
		if sc.rx == w.respSize {
			ch.finish(sc, "")
		}
	}
}

// run drives churn ops: on the seeded schedule (open) or one at a time
// until end (closed).
func (ch *churner) run(sched []time.Duration, start time.Time) {
	defer ch.p.Close()
	hardEnd := ch.end.Add(opTimeout)
	next := 0
	for {
		now := time.Now()
		if ch.open {
			for next < len(sched) && !now.Before(start.Add(sched[next])) {
				ch.launch(start.Add(sched[next]))
				next++
			}
		} else if len(ch.active) == 0 && now.Before(ch.end) {
			ch.launch(now)
			continue
		}
		wake := hardEnd
		if ch.open && next < len(sched) {
			wake = start.Add(sched[next])
		}
		for _, sc := range ch.active {
			if now.After(sc.deadline) {
				ch.finish(sc, "timeout: no response within the op deadline")
				continue
			}
			if !sc.retryAt.IsZero() && !now.Before(sc.retryAt) {
				ch.connect(sc)
			}
			if sc.over {
				continue
			}
			if !sc.retryAt.IsZero() && sc.retryAt.Before(wake) {
				wake = sc.retryAt
			}
			if sc.deadline.Before(wake) {
				wake = sc.deadline
			}
		}
		if len(ch.active) == 0 {
			if ch.open && next == len(sched) || !ch.open && !time.Now().Before(ch.end) {
				return
			}
			if !ch.open {
				continue
			}
		}
		n := ch.p.WaitDeadline(ch.evs, wake)
		for _, ev := range ch.evs[:n] {
			if sc := ch.active[ev.Key]; sc != nil {
				ch.drain(sc)
			}
		}
	}
}

// firstResponse times one request on a fresh connection to a freshly
// built fleet: the end of set-up.
func (w *serveRun) firstResponse() error {
	deadline := time.Now().Add(opTimeout)
	c, err := w.dial(deadline, -1, -1)
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	defer c.Close()
	p := vnet.NewPoller()
	defer p.Close()
	if err := p.AddConn(c, 0); err != nil {
		return err
	}
	if err := w.send(c, w.vnow(), -1, -1); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	var lastArrive model.Duration
	rx := 0
	evs := make([]vnet.Event, 1)
	for rx < w.respSize {
		data, at, err := w.recv(c, -1, -1)
		switch {
		case errors.Is(err, vnet.ErrWouldBlock):
			if time.Now().After(deadline) {
				return errors.New("timeout: no response within the op deadline")
			}
			p.WaitDeadline(evs, deadline)
			continue
		case err != nil:
			return fmt.Errorf("recv: %w", err)
		case data == nil:
			return errors.New("recv: connection closed by the fleet")
		}
		if reason := audit(data, at, lastArrive, rx, 1, w.respSize); reason != "" {
			w.violate(reason)
			return errors.New("audit: " + reason)
		}
		lastArrive = at
		rx += len(data)
	}
	return nil
}

// fleetScrape reads every shard's cumulative counters through the
// fleet's telemetry registry.
func fleetScrape(reg *telemetry.Registry) (scrape, error) {
	samples, err := telemetry.PromParse(reg.PromText())
	if err != nil {
		return scrape{}, fmt.Errorf("parsing fleet telemetry: %w", err)
	}
	s := scrape{vals: map[counterKey]float64{}, gen: map[string]float64{}}
	for _, smp := range samples {
		sh, ok := smp.Labels["shard"]
		if !ok {
			continue
		}
		if smp.Name == "remon_shard_gen" {
			s.gen[sh] = smp.Value
		}
		s.vals[counterKey{smp.Name, sh}] = smp.Value
	}
	return s, nil
}

// counters is one phase-boundary read of every counter the run diffs.
type counters struct {
	shards scrape
	fleet  fleet.Stats
	front  vnet.NetStats
	mem    runtime.MemStats
	// backlogFull and established count the generator's connect
	// attempts refused with a full backlog, and its connections made.
	backlogFull, established int64
}

func (w *serveRun) readCounters(reg *telemetry.Registry) (counters, error) {
	sp := w.tr.begin("fleet.scrape", -1, -1)
	defer w.tr.end(sp)
	var c counters
	var err error
	c.shards, err = fleetScrape(reg)
	c.fleet = w.f.Stats()
	c.front = w.net.Stats()
	runtime.ReadMemStats(&c.mem)
	c.backlogFull, c.established = w.backlogFull.Load(), w.conns.Load()
	return c, err
}

// servePass is one measured pass: an open-loop phase then a closed-loop
// phase on the same fleet.
type servePass struct {
	open, closed   clientStats     // raw samples; dropped by summarize unless traced
	openCPU        []time.Duration // process CPU at each open-loop window boundary
	before, after  counters
	goroutinesPeak int
	sum            passSummary
}

// passSummary is a pass's figures without its raw samples; pooled, the
// figures of several passes.
type passSummary struct {
	open, closed      []winStat
	closedWidth       time.Duration
	cpuWin            []float64 // process CPU µs per attempted op, per open-loop window
	virt              []float64 // median virtual op latency, µs, per pass
	lateP50, lateP99  []float64 // generator lateness, ms, per pass
	attempted, failed int
}

// summarize fills ps.sum and, unless keepRaw, drops the raw samples.
func (ps *servePass) summarize(keepRaw bool) {
	s := &ps.sum
	s.open, s.closed = ps.open.win.stats(missMs), ps.closed.win.stats(missMs)
	s.closedWidth = ps.closed.win.width
	for i, w := range s.open {
		if i+1 < len(ps.openCPU) && w.attempted > 0 {
			s.cpuWin = append(s.cpuWin, float64(ps.openCPU[i+1]-ps.openCPU[i])/1e3/float64(w.attempted))
		}
	}
	if len(ps.open.virt) > 0 {
		s.virt = []float64{median(ps.open.virt)}
	}
	if len(ps.open.late) > 0 {
		s.lateP50, s.lateP99 = []float64{pct(ps.open.late, 50)}, []float64{pct(ps.open.late, 99)}
	}
	oa, of := totals(s.open)
	ca, cf := totals(s.closed)
	s.attempted, s.failed = oa+ca, of+cf
	if !keepRaw {
		ps.open, ps.closed = clientStats{}, clientStats{}
	}
}

// satRate is the median over closed-loop windows of completions per second.
func (s *passSummary) satRate() float64 {
	return medianWin(s.closed, func(w winStat) float64 { return float64(w.done) / s.closedWidth.Seconds() })
}

// pool merges the summaries of consecutive measured passes.
func pool(passes []*servePass) passSummary {
	var out passSummary
	for _, ps := range passes {
		s := &ps.sum
		out.open = append(out.open, s.open...)
		out.closed = append(out.closed, s.closed...)
		out.closedWidth = s.closedWidth
		out.cpuWin = append(out.cpuWin, s.cpuWin...)
		out.virt = append(out.virt, s.virt...)
		out.lateP50 = append(out.lateP50, s.lateP50...)
		out.lateP99 = append(out.lateP99, s.lateP99...)
		out.attempted += s.attempted
		out.failed += s.failed
	}
	return out
}

// sample records the goroutine high-water mark and the process CPU at
// each open-loop window boundary until stop closes.
func (ps *servePass) sample(start time.Time, width time.Duration, bounds int, stop <-chan struct{}) {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if g := runtime.NumGoroutine(); g > ps.goroutinesPeak {
			ps.goroutinesPeak = g
		}
		for len(ps.openCPU) < bounds && !time.Now().Before(start.Add(time.Duration(len(ps.openCPU))*width)) {
			ps.openCPU = append(ps.openCPU, cpuTime())
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

func (w *serveRun) pass(reg *telemetry.Registry, rng *rand.Rand, length time.Duration) (*servePass, error) {
	openLen := length * 6 / 10
	closedLen := length - openLen
	ps := &servePass{}
	var err error
	if ps.before, err = w.readCounters(reg); err != nil {
		return nil, err
	}

	// Per-client schedules: independent Poisson streams at rate/clients.
	scheds := make([][]time.Duration, clients)
	for i := range scheds {
		scheds[i] = poisson(rand.New(rand.NewSource(rng.Int63())), w.spec.openRate/clients, openLen)
	}
	var pcs []*pconn
	if !w.spec.churn {
		for i := 0; i < clients; i++ {
			pcs = append(pcs, newPconn(w))
		}
	}
	w.heap.collect()
	start := time.Now().Add(time.Millisecond)
	per := make([]clientStats, clients)
	for i := range per {
		per[i].win = newWindows(start, openLen, statWindow)
	}
	stop := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		ps.sample(start, per[0].win.width, len(per[0].win.ops)+1, stop)
	}()

	// Open loop.
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if len(scheds[i]) == 0 {
				return
			}
			if w.spec.churn {
				newChurner(w, &per[i], true, start.Add(openLen)).run(scheds[i], start)
				return
			}
			pcs[i].openLoop(scheds[i], start, &per[i])
		}(i)
	}
	wg.Wait()
	ps.open = per[0]
	for i := 1; i < clients; i++ {
		ps.open.merge(&per[i])
	}

	// Closed loop.
	w.heap.collect()
	start = time.Now()
	end := start.Add(closedLen)
	per = make([]clientStats, clients)
	for i := range per {
		per[i].win = newWindows(start, closedLen, statWindow)
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if w.spec.churn {
				newChurner(w, &per[i], false, end).run(nil, start)
				return
			}
			pcs[i].closedLoop(end, &per[i])
		}(i)
	}
	wg.Wait()
	ps.closed = per[0]
	for i := 1; i < clients; i++ {
		ps.closed.merge(&per[i])
	}
	for _, pc := range pcs {
		pc.close()
	}
	close(stop)
	samplerDone.Wait()
	ps.summarize(w.tr != nil)
	ps.after, err = w.readCounters(reg)
	return ps, err
}

// virtFloor is the virtual latency of one op with every monitoring and
// syscall cost removed: the fleet's default link hops and its 2µs of
// compute per request.
func virtFloor(churn bool) float64 {
	front, back := vnet.GigabitLocal, vnet.Loopback
	req, resp := 64, 256
	d := front.TransferTime(0, req) + back.TransferTime(0, req) + 2*model.Microsecond +
		back.TransferTime(0, resp) + front.TransferTime(0, resp)
	if churn {
		d += 2 * front.Latency // the handshake
	}
	return float64(d) / 1e3
}

// runServe runs one serving workload and fills res.
func runServe(spec serveSpec, seed uint64, seconds float64, trace bool, res *result) error {
	cfg := spec.cfg(seed)
	w := &serveRun{spec: spec, heap: &res.heap, reasons: map[string]int{}, violations: map[string]int{}}
	if trace {
		w.tr = newTracer()
	}

	// Set-up: build the fleet and serve its first response, several times.
	for i := 0; i < setupBuilds; i++ {
		w.heap.collect()
		t0 := time.Now()
		sp := w.tr.begin("fleet.New", -1, -1)
		f, err := fleet.New(cfg)
		w.tr.end(sp)
		if err != nil {
			return fmt.Errorf("building fleet: %w", err)
		}
		res.builds = append(res.builds, time.Since(t0).Seconds())
		w.f, w.net, w.addr = f, f.FrontNetwork(), f.FrontAddr()
		reqSize, respSize := f.RequestShape()
		w.respSize = respSize
		w.req = make([]byte, reqSize)
		for j := range w.req {
			w.req[j] = byte('A' + j%26)
		}
		w.vbase = t0
		sp = w.tr.begin("setup.firstResponse", -1, -1)
		err = w.firstResponse()
		w.tr.end(sp)
		res.attempted++
		if err != nil {
			res.failed++
			w.note("set-up: "+err.Error(), 1)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if i < setupBuilds-1 {
			closeFleet(f)
		}
	}
	defer closeFleet(w.f)
	reg := telemetry.NewRegistry()
	w.f.RegisterTelemetry(reg)
	rng := rand.New(rand.NewSource(int64(seed)))
	length := time.Duration(seconds * float64(time.Second))

	// A fifth of the run warms the fleet up; the rest is measured. A
	// traced run measures one untraced cycle, then one traced cycle: the
	// traced figures minus the untraced ones are the tracing overhead.
	tr := w.tr
	w.tr = nil
	warm, err := w.pass(reg, rng, length/5)
	if err != nil {
		return err
	}
	res.account(warm)
	n := cycles
	if trace {
		n = 2
	}
	var measured []*servePass
	for i := 0; i < n; i++ {
		if trace && i == n-1 {
			w.tr = tr
		}
		ps, err := w.pass(reg, rng, length*4/5/time.Duration(n))
		if err != nil {
			return err
		}
		res.account(ps)
		measured = append(measured, ps)
	}
	if trace {
		res.serveLayers(w, measured[0], measured[1])
	} else {
		res.serveEndToEnd(spec, pool(measured))
	}
	res.noteFleet(w)
	res.tr = w.tr
	return nil
}

// closeFleet tears a fleet down without letting a wedged replica set
// hang the run: Close gets a bounded wait, after which it is abandoned
// (the process exit reclaims it).
func closeFleet(f *fleet.Fleet) {
	done := make(chan struct{})
	go func() {
		f.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fmt.Println("warning: fleet close did not finish within 10s; abandoned")
	}
}

// noteFleet records every failure reason and the fleet's divergence
// verdicts on this benign traffic.
func (r *result) noteFleet(w *serveRun) {
	for reason, n := range w.reasons {
		r.reasons = append(r.reasons, fmt.Sprintf("%d ops failed: %s", n, reason))
	}
	for reason, n := range w.violations {
		r.violations += n
		r.reasons = append(r.reasons, fmt.Sprintf("%d integrity violations: %s", n, reason))
	}
	for _, t := range w.f.Transitions() {
		if t.To == fleet.Quarantined && strings.HasPrefix(t.Reason, "divergence") {
			r.divergences++
			r.reasons = append(r.reasons, fmt.Sprintf("shard %d gen %d quarantined: %s", t.Shard, t.Gen, t.Reason))
		}
	}
	sort.Strings(r.reasons)
}

// account adds a pass's ops and the IK-B token violations its shards
// counted to the run's totals.
func (r *result) account(ps *servePass) {
	r.attempted += ps.sum.attempted
	r.failed += ps.sum.failed
	r.tokenViolations += int(deltaOver(ps.before.shards, ps.after.shards, "remon_ikb_token_violations_total"))
}

// serveEndToEnd fills the end-to-end metrics from the pooled measured
// passes.
func (r *result) serveEndToEnd(spec serveSpec, s passSummary) {
	oa, of := totals(s.open)
	ca, cf := totals(s.closed)
	r.set("lat_p50_ms", medianWin(s.open, winP50), oa)
	r.infof("lat_p99_ms %.6f ms (n=%d; reported, not gated: its run-to-run spread exceeds every allowed bound on a shared 2-vCPU host)",
		medianWin(s.open, winP99), oa)
	r.set("cpu_us_per_op", median(s.cpuWin), len(s.cpuWin))
	r.set("sat_ops_per_s", s.satRate(), ca-cf)
	r.set("sat_p99_ms", medianWin(s.closed, winP99), ca)
	floor := virtFloor(spec.churn)
	r.set("virt_overhead", median(s.virt)/floor, len(s.virt))
	r.infof("open loop: %.0f ops/s offered, %d windows pooled over %d cycles: %d attempted, %d failed; each window's p99 has >= %d samples beyond it",
		spec.openRate, len(s.open), len(s.virt), oa, of, minBeyond99(s.open))
	r.infof("generator lateness next to lat_*: gen.late_p50_ms %.4f gen.late_p99_ms %.4f (median over cycles)",
		median(s.lateP50), median(s.lateP99))
	r.infof("closed loop: %d clients x window %d, %d windows: %d attempted, %d failed; each window's p99 has >= %d samples beyond it",
		clients, closedWindow, len(s.closed), ca, cf, minBeyond99(s.closed))
	r.infof("virtual op latency p50 %.2fus over the no-monitor floor %.2fus", median(s.virt), floor)
	r.infof("set-up (fleet.New + first response) s: %v", r.setups)
}

// serveLayers fills the per-layer metrics of the traced pass ps; base is
// the untraced pass that ran just before it on the same fleet.
func (r *result) serveLayers(w *serveRun, base, ps *servePass) {
	ops := float64(ps.sum.attempted)
	a, b := ps.after, ps.before
	d := func(name string) float64 { return deltaOver(b.shards, a.shards, name) }
	conns := float64(a.established - b.established)
	r.set("gen.late_p50_ms", pct(ps.open.late, 50), len(ps.open.late))
	r.set("gen.late_p99_ms", pct(ps.open.late, 99), len(ps.open.late))
	sends := w.tr.durations("vnet.Send")
	r.set("vnet.send_us_p50", median(sends), len(sends))
	connects := w.tr.durations("vnet.TryConnect")
	r.set("vnet.connect_us_p50", median(connects), len(connects))
	r.set("vnet.backlog_full_per_conn", ratio(float64(a.backlogFull-b.backlogFull), conns), int(conns))
	segs := float64(a.front.Segments-b.front.Segments) + d("remon_vnet_segments_total")
	r.set("vnet.segments_per_op", ratio(segs, ops), 0)
	first := append(append([]float64(nil), ps.open.first...), ps.closed.first...)
	r.set("fleet.first_byte_ms_p50", median(first), len(first))
	r.set("fleet.first_byte_ms_p99", pct(first, 99), len(first))
	r.set("fleet.refused_per_conn", ratio(float64(a.fleet.ConnsRefused-b.fleet.ConnsRefused), conns), 0)
	r.set("fleet.admit_waits_per_conn", ratio(float64(a.fleet.AdmitWaits-b.fleet.AdmitWaits), conns), 0)
	r.set("fleet.failovers", float64(a.fleet.Failovers-b.fleet.Failovers), 0)
	r.set("fleet.recoveries", float64(a.fleet.Recoveries-b.fleet.Recoveries), 0)
	r.set("fleet.goroutines_peak", float64(ps.goroutinesPeak), 0)
	r.setLayers(layerDeltas{
		ops:         ops,
		intercepted: d("remon_ikb_intercepted_total"),
		routedIPMon: d("remon_ikb_routed_ipmon_total"),
		dispatched:  d("remon_ipmon_dispatched_total"),
		unmonitored: d("remon_ipmon_unmonitored_total"),
		forwarded: d("remon_ipmon_forwarded_policy_total") + d("remon_ipmon_forwarded_signal_total") +
			d("remon_ipmon_forwarded_too_big_total"),
		wakes:      d("remon_rb_wakes_total"),
		wakeChecks: d("remon_rb_wake_checks_total"),
		batched:    d("remon_rb_batched_total"),
		lagWaits:   d("remon_rb_lag_waits_total"),
		rbResets:   d("remon_ghumvee_rb_resets_total"),
		monitored:  d("remon_ghumvee_monitored_calls_total"),
		stops:      d("remon_ghumvee_ptrace_stops_total"),
		wakeups:    d("remon_ghumvee_wakeups_total"),
		compared:   d("remon_ghumvee_bytes_compared_total"),
		divs:       d("remon_ghumvee_divergences_total"),
	})
	r.set("rt.alloc_bytes_per_op", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops), 0)
	r.set("rt.gc_per_kop", ratio(1000*float64(a.mem.NumGC-b.mem.NumGC), ops), 0)

	p50t, p50b := medianWin(ps.sum.open, winP50), medianWin(base.sum.open, winP50)
	cpuT, cpuB := median(ps.sum.cpuWin), median(base.sum.cpuWin)
	satT, satB := ps.sum.satRate(), base.sum.satRate()
	r.set("trace.overhead_lat_p50_ms", p50t-p50b, 0)
	r.set("trace.overhead_cpu_us_per_op", cpuT-cpuB, 0)
	r.set("trace.overhead_sat_ops_per_s", satT-satB, 0)
	r.infof("traced pass vs untraced pass: lat_p50_ms %.4f vs %.4f, cpu_us_per_op %.3f vs %.3f, sat_ops_per_s %.0f vs %.0f",
		p50t, p50b, cpuT, cpuB, satT, satB)
}
