package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"memqlat/internal/otrace"
)

const (
	setups = 5 // set-ups per e2e run; setup_s is their median

	// An e2e run is `rounds` short closed-loop rounds, and every
	// end-to-end value is the median over the `quiet` rounds that
	// completed the most requests. On a small shared box interference
	// only ever slows a round down, so the quiet fifth repeats from run
	// to run where the median of all rounds does not (README "Steadiness").
	rounds = 30
	quiet  = rounds / 5
)

// counters is every public counter the tiers expose, summed over each
// tier's instances; its change over the rounds gives the per-op ratios.
type counters struct {
	srvCommands                      int64
	loopWakeups, loopFlushes         int64
	proxyCommands, proxyFwd          int64
	dials, discards                  int64
	gets, hits, evictions, lockWaits int64 // cache
	spans                            int64 // recorded by the shared tracer; 0 with tracing off
	expected                         int64 // server commands the issued requests must have caused
}

func (e *env) counters(expected *[conns]paddedCount) counters {
	var c counters
	for _, s := range e.servers {
		c.srvCommands += s.Counters().Commands
		for _, l := range s.LoopStats() {
			c.loopWakeups += l.Wakeups
			c.loopFlushes += l.FlushBatches
		}
		st := s.Cache().Stats()
		c.gets += st.Gets
		c.hits += st.Hits
		c.evictions += st.Evictions
		c.lockWaits += st.LockWaits
	}
	if e.proxy != nil {
		st := e.proxy.Stats()
		c.proxyCommands, c.proxyFwd = st.Commands, st.Forwarded
	}
	for i := 0; i < e.cl.NumServers(); i++ {
		if ps, err := e.cl.PoolStats(i); err == nil { // i is in range
			c.dials += ps.Dials
			c.discards += ps.Discards
		}
	}
	for i := range expected {
		c.expected += expected[i].n
	}
	_, spans := e.tracer.Stats()
	c.spans = int64(spans)
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		srvCommands: c.srvCommands - o.srvCommands,
		loopWakeups: c.loopWakeups - o.loopWakeups, loopFlushes: c.loopFlushes - o.loopFlushes,
		proxyCommands: c.proxyCommands - o.proxyCommands, proxyFwd: c.proxyFwd - o.proxyFwd,
		dials: c.dials - o.dials, discards: c.discards - o.discards,
		gets: c.gets - o.gets, hits: c.hits - o.hits,
		evictions: c.evictions - o.evictions, lockWaits: c.lockWaits - o.lockWaits,
		spans: c.spans - o.spans, expected: c.expected - o.expected,
	}
}

// paddedCount keeps each worker's counter on its own cache line.
type paddedCount struct {
	n int64
	_ [56]byte
}

// A run is the e2e phase of one env: warm, then timed rounds.
type run struct {
	rounds    []round
	delta     counters // the tiers' counters, after the rounds minus before
	qdepthMax int      // proxy upstream queue depth, sampled every 10 ms
	schedP99  float64  // seconds, over the rounds
}

// legsOf returns how many server commands request i causes: one per
// server that owns any of its keys.
func (e *env) legsOf() []uint8 {
	if e.w.multi == 1 {
		return nil
	}
	legs := make([]uint8, e.st.n())
	var owners []string
	for i := range legs {
		keys, _ := e.st.op(i)
		owners = owners[:0]
		for _, k := range keys {
			if o := e.cl.ServerFor(e.st.keys[k]); !slices.Contains(owners, o) {
				owners = append(owners, o)
			}
		}
		legs[i] = uint8(len(owners))
	}
	return legs
}

// measure warms for warm, then runs n closed-loop rounds of dur each at
// C = conns. probe additionally samples what only the layer run reports
// (scheduler latency, proxy queue depth), so the e2e run pays nothing
// for them. On the traced run (e.tracer set) each client call is
// bracketed by the harness's own bench/op span.
func (e *env) measure(recs []*recorder, warm, dur time.Duration, n int, probe bool) run {
	legs := e.legsOf()
	var expected [conns]paddedCount
	var bufs [conns][]string
	for i := range bufs {
		bufs[i] = make([]string, e.w.multi)
	}
	do := func(wk, i int) bool {
		if legs != nil {
			expected[wk].n += int64(legs[i])
		} else {
			expected[wk].n++
		}
		if e.tracer == nil {
			return e.do(i, bufs[wk])
		}
		sp := e.tracer.Begin(otrace.Ctx{}, "bench", "op", wk)
		ok := e.do(i, bufs[wk])
		e.tracer.End(sp)
		return ok
	}
	closedLoop(conns, warm, recs, e.cursor[:], e.st.n(), do)

	var r run
	var stop chan struct{}
	var sampler sync.WaitGroup
	var sched0 *metrics.Float64Histogram
	if probe {
		sched0 = schedLatencies()
		if e.proxy != nil {
			stop = make(chan struct{})
			sampler.Add(1)
			go func() { // stopped by close(stop) below
				defer sampler.Done()
				tick := time.NewTicker(10 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						for _, d := range e.proxy.UpstreamQueueDepths() {
							r.qdepthMax = max(r.qdepthMax, d)
						}
					}
				}
			}()
		}
	}
	before := e.counters(&expected)
	for i := 0; i < n; i++ {
		r.rounds = append(r.rounds, closedLoop(conns, dur, recs, e.cursor[:], e.st.n(), do))
	}
	r.delta = e.counters(&expected).sub(before)
	if stop != nil {
		close(stop)
		sampler.Wait()
	}
	if probe {
		r.schedP99 = histDeltaQuantile(sched0, schedLatencies(), 0.99)
	}
	return r
}

func schedLatencies() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// histDeltaQuantile is the q-quantile (bucket upper bound) of the
// samples a cumulative runtime histogram gained between two reads.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank, seen := uint64(q*float64(total)), uint64(0)
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen > rank {
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// check records the run's correctness: every reply verified, and the
// tiers counted exactly the commands the requests must have caused.
func (r *run) check(e *env, rep *report) {
	for _, rd := range r.rounds {
		rep.attempted += rd.attempted
		rep.failed += rd.failed
	}
	d := r.delta
	if d.srvCommands != d.expected {
		rep.problem("servers counted %d commands, the issued requests cause %d", d.srvCommands, d.expected)
	}
	if e.proxy != nil && (d.proxyCommands != d.expected || d.proxyFwd != d.expected) {
		rep.problem("proxy counted %d commands and %d forwards for %d requests", d.proxyCommands, d.proxyFwd, d.expected)
	}
	if !e.w.mayMiss() && d.gets != d.hits {
		rep.problem("cache served %d hits for %d gets on an all-hit workload", d.hits, d.gets)
	}
}

func column(rs []round, f func(round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// liveHeapMB is HeapAlloc after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// measureCalibrated is the e2e run's timed part: warm, `rounds` rounds
// of seconds/rounds each, and the machine's speed over the same minute.
func (e *env) measureCalibrated(recs []*recorder, seconds float64) (run, float64, error) {
	calib, err := newCalibrator()
	if err != nil {
		return run{}, 0, err
	}
	defer calib.close()
	unit := time.Duration(seconds / 15 * float64(time.Second))
	// Calibrate on both sides of the rounds, not between them: a
	// calibration round in between leaves the scheduler in a state that
	// the next workload round inherits (single rounds then read 197 k
	// ops/s), and the machine's regimes last minutes, not seconds.
	calib.rounds(recs, unit/5, 3*unit)
	r := e.measure(recs, unit, time.Duration(seconds/rounds*float64(time.Second)), rounds, false)
	calib.rounds(recs, unit/5, 3*unit)
	return r, calib.speed(), nil
}

// runE2E is the tracing-off run: set up (setups times, the last kept),
// warm, rounds x seconds/rounds, and report the end-to-end metrics over
// the quiet rounds.
func runE2E(w *workload, seed uint64, seconds float64, rep *report) error {
	var e *env
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC() // the discarded tiers must not count against the next set-up's heap growth
		}
		var s float64
		var err error
		if e, s, err = setup(w, seed, nil); err != nil {
			return err
		}
		setupSecs = append(setupSecs, s)
	}
	defer e.close()
	rep.hash = e.st.hash

	recs := []*recorder{newRecorder(), newRecorder()}
	r, speed, err := e.measureCalibrated(recs, seconds)
	if err != nil {
		return err
	}
	r.check(e, rep)

	all := r.rounds
	q := append([]round(nil), all...)
	sort.SliceStable(q, func(i, j int) bool { return q[i].rate > q[j].rate })
	q = q[:quiet]
	n := int64(0)
	for _, rd := range q {
		n += rd.lat.n
	}
	// Reported at the reference machine's speed: times x speed, rates / speed.
	rate := func(r round) float64 { return r.rate }
	for i := range setupSecs {
		setupSecs[i] *= speed
	}
	rep.e2e("setup_s", int64(len(setupSecs)), setupSecs)
	rep.e2e("throughput_ops_s", n, column(q, func(r round) float64 { return r.rate / speed }))
	rep.note("machine speed %.3f of the reference (echo loop %.0f 1/s at C=%d); as measured: throughput %.0f 1/s, setup %.4f s",
		speed, speed*echoRef, conns, median(column(q, rate)), median(setupSecs)/speed)
	p50, p99 := column(q, func(r round) float64 { return r.lat.p50 / 1e3 }), column(q, func(r round) float64 { return r.lat.p99 / 1e3 })
	rep.note("latency over the quiet rounds, as measured, not gated (README \"Why latency is not gated\"): p50 %.2f us (spread %.1f%%), p99 %.2f us (spread %.1f%%), n=%d",
		median(p50), 100*spread(p50), median(p99), 100*spread(p99), n)
	rep.note("as measured, throughput over all %d rounds: median %.0f 1/s, (max-min)/median %.1f%% - how noisy the box was",
		len(all), median(column(all, rate)), 100*spread(column(all, rate)))
	best := q[0]
	rep.note("highest percentile with >=10 samples beyond it, best round: p%g = %.1f us (n=%d)",
		best.lat.topPct, best.lat.top/1e3, best.lat.n)
	rep.note("loadgen.little_ratio = %.4f (best round)", best.littleRatio(conns))

	// recs is dead from here on, so the forced collection frees the
	// harness's recorders: they are not the program's heap.
	rep.e2e("live_heap_mb", 1, []float64{liveHeapMB()})
	return nil
}

// runLayers is the layer run: one untraced round for the counter- and
// runtime-derived metrics, the raw-socket and in-memory passes, the
// repo's own generator, then the traced run on a fresh set of tiers.
func runLayers(w *workload, seed uint64, seconds float64, outDir string, rep *report) error {
	unit := time.Duration(seconds / 15 * float64(time.Second))
	recs := []*recorder{newRecorder(), newRecorder()}

	e, _, err := setup(w, seed, nil)
	if err != nil {
		return err
	}
	defer e.close() // a second close, after the explicit one below, is a no-op
	rep.hash = e.st.hash
	r := e.measure(recs, unit, 5*unit, 1, true)
	r.check(e, rep)
	rd := r.rounds[0]
	ops := float64(rd.attempted)
	d := r.delta
	ratio := func(a, b int64) float64 { // 0 where the workload has no such tier
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	harness := closedLoop(conns, unit/5, recs, make([]int, conns), e.st.n(), func(_, _ int) bool { return true })
	rep.layer("loadgen.harness_ns_op", "ns", harness.attempted, 1e9/harness.rate)
	rep.layer("loadgen.little_ratio", "ratio", rd.lat.n, rd.littleRatio(conns))
	rep.layer("loadgen.p50_us", "us", rd.lat.n, rd.lat.p50/1e3)
	rep.layer("loadgen.p99_us", "us", rd.lat.n, rd.lat.p99/1e3)
	// The harness checking itself. A breach means the numbers of this
	// run are the harness's, not the program's; it is not a wrong reply,
	// so it is flagged rather than counted against correctness.
	if share := rd.rate / harness.rate; share >= 0.02 {
		rep.note("WARNING: the harness costs %.1f%% of the per-op time; it must stay under 2%%", 100*share)
	}
	if lr := rd.littleRatio(conns); lr < 0.97 || lr > 1.03 {
		rep.note("WARNING: loadgen.little_ratio = %.4f, outside 1.00 +- 0.03", lr)
	}

	rep.layer("client.dials", "count", rd.attempted, float64(d.dials))
	rep.layer("client.discards", "count", rd.attempted, float64(d.discards))
	rep.layer("cache.hit_ratio", "ratio", d.gets, ratio(d.hits, d.gets))
	rep.layer("cache.evictions_op", "1/op", rd.attempted, ratio(d.evictions, rd.attempted))
	rep.layer("cache.lock_waits_op", "1/op", rd.attempted, ratio(d.lockWaits, rd.attempted))
	rep.layer("server.commands_op", "1/op", rd.attempted, ratio(d.srvCommands, rd.attempted))
	rep.layer("server.loop_wakeups_op", "1/op", d.srvCommands, ratio(d.loopWakeups, d.srvCommands))
	rep.layer("server.loop_flushes_op", "1/op", d.srvCommands, ratio(d.loopFlushes, d.srvCommands))
	rep.layer("proxy.forwarded_per_cmd", "ratio", d.proxyCommands, ratio(d.proxyFwd, d.proxyCommands))
	rep.layer("proxy.upstream_qdepth_max", "count", int64(rd.secs*100), float64(r.qdepthMax))

	rep.layer("runtime.allocs_op", "1/op", rd.attempted, rd.used.mallocs/ops)
	rep.layer("runtime.alloc_bytes_op", "B/op", rd.attempted, rd.used.allocBytes/ops)
	rep.layer("runtime.gc_cycles_s", "1/s", int64(rd.used.gcCycles), rd.used.gcCycles/rd.secs)
	rep.layer("runtime.gc_pause_ms_s", "ms/s", int64(rd.used.gcCycles), rd.used.gcPauseNs/1e6/rd.secs)
	rep.layer("runtime.cpu_us_op", "us", rd.attempted, rd.used.cpuSecs*1e6/ops)
	rep.layer("runtime.sched_lat_p99_us", "us", rd.attempted, r.schedP99*1e6)
	rep.layer("runtime.p999_us", "us", rd.lat.n, rd.lat.p999/1e3)
	rep.layer("runtime.max_ms", "ms", rd.lat.n, rd.lat.max/1e6)

	cmdsFramed, err := e.frame()
	if err != nil {
		return err
	}
	if err := e.netLayers(cmdsFramed, recs, unit, rep); err != nil {
		return err
	}
	if err := e.memLayers(cmdsFramed, rep); err != nil {
		return err
	}
	// What the conn core owns: the raw round trip less the kernel floor
	// and less the in-memory work of one command (README "Residuals").
	parse := rep.value("protocol.parse_ns")
	if w.connCore == "eventloop" {
		parse = rep.value("protocol.stream_parse_ns")
	}
	keysPerCmd := float64(w.multi) / float64(len(cmdsFramed[0]))
	inMem := parse + keysPerCmd*rep.value("cache.get_ns") + rep.value("protocol.reply_write_ns")
	rep.layer("server.conn_core_us", "us", rep.get("server.raw_rtt_us").n, rep.value("server.raw_rtt_us")-rep.value("loopback.echo_rtt_us")-inMem/1e3)

	lgRate, lgN, err := e.loadgenRate(seed, unit)
	if err != nil {
		return err
	}
	rep.layer("loadgen.run_ops_s", "1/s", lgN, lgRate)
	e.close()
	return runTraced(w, seed, unit, outDir, recs, rd.rate, rep)
}

// runTraced is the traced run: fresh tiers sharing one tracer, the same
// closed loop with a bench/op span around every client call. untraced
// is the throughput the same process measured with tracing off.
func runTraced(w *workload, seed uint64, unit time.Duration, outDir string, recs []*recorder, untraced float64, rep *report) error {
	tr := otrace.New(otrace.Options{RingSize: traceRing})
	e, _, err := setup(w, seed, tr)
	if err != nil {
		return err
	}
	defer e.close()
	t := e.measure(recs, unit, 3*unit, 1, false)
	tracedOps := t.rounds[0].attempted
	rep.attempted += t.rounds[0].attempted
	rep.failed += t.rounds[0].failed
	spans := tr.Snapshot()
	st := analyze(spans)
	rep.layer("trace.bench_self_us", "us", int64(st.complete), st.bench*1e6)
	rep.layer("trace.client_self_us", "us", int64(st.complete), st.client*1e6)
	rep.layer("trace.wire_self_us", "us", int64(st.complete), st.wire*1e6)
	rep.layer("trace.proxy_self_us", "us", int64(st.complete), st.proxy*1e6)
	rep.layer("trace.server_self_us", "us", int64(st.complete), st.server*1e6)
	coverage := 0.0
	if st.traces > 0 {
		coverage = float64(st.complete) / float64(st.traces)
	}
	rep.layer("trace.coverage_frac", "ratio", int64(st.traces), coverage)
	rep.layer("otrace.overhead_frac", "ratio", tracedOps, 1-t.rounds[0].rate/untraced)
	rep.layer("otrace.spans_op", "1/op", tracedOps, float64(t.delta.spans)/float64(tracedOps))
	path, err := writeTrace(outDir, w.name, spans)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	rep.note("%d spans written to %s", len(spans), path)
	return nil
}
