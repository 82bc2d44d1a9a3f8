package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// This file keeps the event-scheduled implementation the integrated
// mode replaced — a heap of closures, one station per server — as the
// reference the request-driven pass must reproduce sample for sample.

type refEvent struct {
	at  float64
	seq uint64 // simultaneous events run FIFO
	fn  func()
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type refEngine struct {
	now    float64
	seq    uint64
	events refEventHeap
}

func (e *refEngine) schedule(delay float64, fn func()) {
	e.seq++
	heap.Push(&e.events, &refEvent{at: e.now + max(delay, 0), seq: e.seq, fn: fn})
}

// run drains the queue and returns the time of the last event.
func (e *refEngine) run() float64 {
	for len(e.events) > 0 {
		next := heap.Pop(&e.events).(*refEvent)
		e.now = next.at
		next.fn()
	}
	return e.now
}

type refStation struct {
	mu      float64
	rng     *rand.Rand
	eng     *refEngine
	busy    bool
	pending []*refKey
	busyAcc *float64
	rec     telemetry.Recorder
	inj     *fault.Injector
	target  int
}

type refKey struct {
	req           *refRequest
	arrived, done float64
	sojourn       float64
	failed        bool
	dbLatency     float64
}

type refRequest struct {
	start, maxTS, maxTD, sumTS float64
	remaining, failed          int
	measured                   bool
}

func (s *refStation) enqueue(k *refKey) {
	k.arrived = s.eng.now
	s.pending = append(s.pending, k)
	if !s.busy {
		s.startNext()
	}
}

// startNext starts the head of the queue under its fault verdict: a
// refused key fails then, adding no work, and the next key starts at once; a
// lost one is served and fails at the later of its completion and the
// verdict's delay.
func (s *refStation) startNext() {
	for len(s.pending) > 0 {
		k := s.pending[0]
		s.pending = s.pending[1:]
		act := s.inj.At(s.target, s.eng.now)
		if act.Refused() {
			k.done, k.sojourn, k.failed = s.eng.now, s.eng.now-k.arrived, true
			continue
		}
		s.busy = true
		service := s.rng.ExpFloat64()/s.mu + act.Work()
		*s.busyAcc += service
		if k.req.measured && !act.Lost() {
			s.rec.Observe(telemetry.StageQueueWait, s.eng.now-k.arrived)
			s.rec.Observe(telemetry.StageService, service)
		}
		s.eng.schedule(service, func() {
			k.done, k.sojourn, k.failed = s.eng.now, s.eng.now-k.arrived, act.Lost()
			if k.failed && act.Delay > k.sojourn {
				k.done, k.sojourn = k.arrived+act.Delay, act.Delay
			}
			s.startNext()
		})
		return
	}
	s.busy = false
}

// simulateIntegratedRef is the event-scheduled integrated simulator with
// validation dropped: the same rng streams, drawn at the same events. A
// failed key draws no miss coin, and the coins go in launch order, so
// the memcached stations run first and the database (an infinite-server
// stage, which no station waits on) runs after them on the same clock.
func simulateIntegratedRef(cfg RequestConfig) *RequestResult {
	m := cfg.Model
	warmup := cfg.Requests / 10
	var inj *fault.Injector
	if !cfg.Faults.Empty() {
		inj, _ = fault.NewInjector(cfg.Faults, m.M())
	}
	var eng refEngine
	res := &RequestResult{
		Total:  stats.NewHistogram(),
		TS:     stats.NewHistogram(),
		TD:     stats.NewHistogram(),
		KeyLat: stats.NewHistogram(),
	}
	assign, _ := dist.NewWeighted(m.LoadRatios)
	var (
		rngReq    = dist.SubRand(cfg.Seed, 201)
		rngAssign = dist.SubRand(cfg.Seed, 202)
		rngMiss   = dist.SubRand(cfg.Seed, 203)
		rngDB     = dist.SubRand(cfg.Seed, 204)
	)
	rec := telemetry.OrNop(cfg.Recorder)
	finishKey := func(k *refKey) {
		r := k.req
		if k.sojourn > r.maxTS {
			r.maxTS = k.sojourn
		}
		if k.dbLatency > r.maxTD {
			r.maxTD = k.dbLatency
		}
		if k.failed {
			r.failed++
		}
		r.sumTS += k.sojourn
		r.remaining--
		if r.remaining == 0 && r.measured {
			res.Total.Record(eng.now - r.start)
			res.TS.Record(r.maxTS)
			res.TD.Record(r.maxTD)
			res.Requests++
			res.FailedKeys += int64(r.failed)
			rec.Observe(telemetry.StageForkJoin, r.maxTS-r.sumTS/float64(m.N))
		}
	}
	res.BusyTime = make([]float64, m.M())
	servers := make([]*refStation, m.M())
	for j := range servers {
		servers[j] = &refStation{
			mu: m.MuS, rng: dist.SubRand(cfg.Seed, 300+uint64(j)), eng: &eng,
			busyAcc: &res.BusyTime[j], rec: rec, inj: inj, target: j,
		}
	}
	reqRate := m.TotalKeyRate / float64(m.N)
	total := warmup + cfg.Requests
	var keys []*refKey // launch order
	var launch func()
	launch = func() {
		if len(keys) >= total*m.N {
			return
		}
		r := &refRequest{start: eng.now, remaining: m.N, measured: len(keys) >= warmup*m.N}
		for i := 0; i < m.N; i++ {
			k := &refKey{req: r}
			keys = append(keys, k)
			srv := servers[assign.SampleInt(rngAssign)]
			eng.schedule(m.NetworkLatency, func() { srv.enqueue(k) })
		}
		eng.schedule(rngReq.ExpFloat64()/reqRate, launch)
	}
	launch()
	res.Elapsed = eng.run()
	eng.now = 0
	for _, k := range keys {
		if k.req.measured {
			res.KeyLat.Record(k.sojourn)
			res.KeyCount++
		}
		if k.failed || !(m.MissRatio > 0 && rngMiss.Float64() < m.MissRatio) {
			eng.schedule(k.done, func() { finishKey(k) })
			continue
		}
		if k.req.measured {
			res.MissCount++
		}
		eng.schedule(k.done, func() {
			act := inj.At(fault.Database, eng.now)
			k.dbLatency = rngDB.ExpFloat64()/m.MuD + act.Delay
			k.failed = act.Outcome != fault.OK
			if k.req.measured {
				rec.Observe(telemetry.StageMissPenalty, k.dbLatency)
			}
			eng.schedule(k.dbLatency, func() { finishKey(k) })
		})
	}
	res.Elapsed = max(res.Elapsed, eng.run())
	return res
}

// stageLog keeps every observation, per stage, for a sample-for-sample
// comparison.
type stageLog map[telemetry.Stage][]float64

func (l stageLog) Observe(s telemetry.Stage, v float64) { l[s] = append(l[s], v) }

// TestSimulateIntegratedMatchesReference: the request-driven pass must
// reproduce the event-scheduled system exactly — per-key stage samples
// and per-request histograms bit for bit, busy time and elapsed span to
// the last bit. Only sums taken in a different order (the Welford means,
// the fork-join spread's Σ sojourn) may move, in the last ulps. The grid
// covers queueing across requests (T_N ≫ the request gap), misses in
// bulk, imbalance, fault windows on a server and on the database, and
// failed keys: server drops and resets.
func TestSimulateIntegratedMatchesReference(t *testing.T) {
	withN := func(n int) func(*core.Config) { return func(m *core.Config) { m.N = n } }
	configs := []struct {
		name   string
		edit   func(*core.Config)
		faults string
	}{
		{"facebook-N20", withN(20), ""},
		{"facebook-N150", withN(150), ""},
		{"mm1-N1-rho0.6", func(m *core.Config) {
			m.N, m.Xi, m.Q, m.MissRatio, m.TotalKeyRate = 1, 0, 0, 0, 4*48000
		}, ""},
		{"N10-r30", func(m *core.Config) { m.N, m.MissRatio = 10, 0.3 }, ""},
		{"N20-TN5ms", func(m *core.Config) { m.N, m.NetworkLatency = 20, 5e-3 }, ""},
		{"N20-p1-0.55", func(m *core.Config) { m.N, m.LoadRatios = 20, []float64{0.55, 0.15, 0.15, 0.15} }, ""},
		{"N20-faults-r5", func(m *core.Config) { m.N, m.MissRatio = 20, 0.05 },
			"slow:srv=1,from=10ms,until=30ms,delay=200us;stall:srv=db,from=20ms,until=25ms"},
		{"N20-drop-reset-r5", func(m *core.Config) { m.N, m.MissRatio = 20, 0.05 },
			"drop:srv=0,p=0.3,delay=1ms;reset:srv=2,p=0.1;slow:srv=3,p=0.2,delay=100us"},
	}
	for _, c := range configs {
		for _, seed := range []uint64{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				m := facebookModel()
				c.edit(m)
				cfg := RequestConfig{Model: m, Requests: 1000, Seed: seed, Integrated: true}
				if c.faults != "" {
					cfg.Faults = mustSchedule(t, c.faults)
				}
				gotLog, wantLog := stageLog{}, stageLog{}
				cfg.Recorder = gotLog
				got, err := SimulateRequests(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Recorder = wantLog
				want := simulateIntegratedRef(cfg)
				compareIntegrated(t, got, want, gotLog, wantLog)
			})
		}
	}
}

func compareIntegrated(t *testing.T, got, want *RequestResult, gotLog, wantLog stageLog) {
	t.Helper()
	if got.Requests != want.Requests || got.KeyCount != want.KeyCount || got.MissCount != want.MissCount ||
		got.FailedKeys != want.FailedKeys {
		t.Errorf("requests/keys/misses/failed = %d/%d/%d/%d, reference %d/%d/%d/%d",
			got.Requests, got.KeyCount, got.MissCount, got.FailedKeys,
			want.Requests, want.KeyCount, want.MissCount, want.FailedKeys)
	}
	if got.Elapsed != want.Elapsed {
		t.Errorf("elapsed = %v, reference %v", got.Elapsed, want.Elapsed)
	}
	if !slices.Equal(got.BusyTime, want.BusyTime) {
		t.Errorf("busy time = %v, reference %v", got.BusyTime, want.BusyTime)
	}
	for _, h := range []struct {
		name      string
		got, want *stats.Histogram
	}{{"Total", got.Total, want.Total}, {"TS", got.TS, want.TS}, {"TD", got.TD, want.TD}, {"KeyLat", got.KeyLat, want.KeyLat}} {
		if msg := sameSample(h.got, h.want); msg != "" {
			t.Errorf("%s: %s", h.name, msg)
		}
	}
	for _, s := range []telemetry.Stage{telemetry.StageQueueWait, telemetry.StageService, telemetry.StageMissPenalty} {
		g, w := sorted(gotLog[s]), sorted(wantLog[s])
		if !slices.Equal(g, w) {
			t.Errorf("%v samples differ (%d vs %d)", s, len(g), len(w))
		}
	}
	g, w := sorted(gotLog[telemetry.StageForkJoin]), sorted(wantLog[telemetry.StageForkJoin])
	if len(g) != len(w) {
		t.Fatalf("fork_join = %d samples, reference %d", len(g), len(w))
	}
	for i := range g {
		if math.Abs(g[i]-w[i]) > 1e-12*math.Abs(w[i])+1e-18 {
			t.Fatalf("fork_join sample %d = %v, reference %v", i, g[i], w[i])
		}
	}
}

// sameSample compares two histograms of the same samples recorded in a
// different order: counts per bucket and the extremes exactly, the
// order-dependent Welford moments to 1e-12.
func sameSample(got, want *stats.Histogram) string {
	type bucket struct {
		upper float64
		count int64
	}
	var g, w []bucket
	got.EachBucket(func(u float64, c int64) { g = append(g, bucket{u, c}) })
	want.EachBucket(func(u float64, c int64) { w = append(w, bucket{u, c}) })
	switch {
	case !slices.Equal(g, w):
		return "buckets differ"
	case got.Count() != want.Count() || got.Min() != want.Min() || got.Max() != want.Max():
		return "count/min/max differ"
	case math.Abs(got.Mean()-want.Mean()) > 1e-12*want.Mean():
		return "mean differs"
	case math.Abs(got.StdDev()-want.StdDev()) > 1e-12*want.StdDev():
		return "stddev differs"
	}
	return ""
}

func sorted(v []float64) []float64 {
	v = slices.Clone(v)
	slices.Sort(v)
	return v
}
