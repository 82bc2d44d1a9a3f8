package sim

import (
	"fmt"
	"math/rand/v2"

	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// IntegratedConfig drives the full event-scheduled fork-join system:
// Poisson end-user requests fork into N keys, keys are hashed to servers
// by {p_j}, queue FIFO with exponential service, misses visit the
// database (an independent Exp(µ_D) delay each — the paper's ρ_D ≈ 0
// approximation), and the request joins when its last key completes.
// Unlike RequestSim, per-server arrival processes here *emerge* from
// the request stream (keys of one request land simultaneously,
// creating batches), so this mode stress-tests the model's
// independence and GI^X assumptions rather than assuming them.
type IntegratedConfig struct {
	Model *core.Config
	// Requests to complete, after a warm-up of Requests/10 more that
	// are discarded.
	Requests int
	// Seed makes the run deterministic.
	Seed uint64
	// Recorder, when set, receives the per-stage decomposition of every
	// measured key/request (queue wait, service, miss penalty,
	// fork-join overhead) in virtual time.
	Recorder telemetry.Recorder
	// Faults applies the shared schedule in virtual time. The integrated
	// mode models servers (not connections), so connection-level
	// outcomes collapse via Injector.DelayAt: an unresponsive window
	// holds the server busy until it recovers.
	Faults fault.Schedule
}

// IntegratedResult mirrors RequestResult for the integrated mode.
type IntegratedResult struct {
	Total     *stats.Histogram
	TS        *stats.Histogram
	TD        *stats.Histogram
	KeyLat    *stats.Histogram // per-key memcached sojourn
	MissCount int64
	KeyCount  int64
	// Completed counts requests measured (post-warmup).
	Completed int
	// BusyTime accumulates per-server busy seconds (virtual time),
	// indexed like the model's servers; Elapsed is the measured virtual
	// span. Utilization(j) = BusyTime[j]/Elapsed — used to verify the
	// emergent load matches ρ_j and, with KeyLat, Little's law.
	BusyTime []float64
	// Elapsed is the virtual time spanned by the measured phase.
	Elapsed float64
}

// Utilization returns the measured busy fraction of server j.
func (r *IntegratedResult) Utilization(j int) float64 {
	if j < 0 || j >= len(r.BusyTime) || r.Elapsed <= 0 {
		return 0
	}
	return r.BusyTime[j] / r.Elapsed
}

// station is a FIFO single-server queue with exponential service.
type station struct {
	mu      float64
	rng     *rand.Rand
	engine  *Engine
	busy    bool
	pending []*key // waiting keys (head is next to serve)
	onDone  func(*key)
	// busyAcc, when set, accumulates total service seconds (the busy
	// time of a single-server queue).
	busyAcc *float64
	// rec, when set, receives queue-wait/service observations for
	// measured keys.
	rec telemetry.Recorder
	// inj/target, when set, stretch service by the schedule's collapsed
	// delay at the key's service start (DelayAt semantics).
	inj    *fault.Injector
	target int
}

type key struct {
	req        *request
	arrived    float64
	sojourn    float64 // memcached-stage sojourn, set by the station that served the key
	willMiss   bool
	dbLatency  float64
	netLatency float64
}

type request struct {
	start     float64
	remaining int
	maxTS     float64
	maxTD     float64
	sumTS     float64
	measured  bool
}

func (s *station) enqueue(k *key) {
	k.arrived = s.engine.Now()
	s.pending = append(s.pending, k)
	if !s.busy {
		s.startNext()
	}
}

func (s *station) startNext() {
	if len(s.pending) == 0 {
		s.busy = false
		return
	}
	s.busy = true
	k := s.pending[0]
	s.pending = s.pending[1:]
	service := s.rng.ExpFloat64() / s.mu
	service += s.inj.DelayAt(s.target, s.engine.Now())
	if s.busyAcc != nil {
		*s.busyAcc += service
	}
	if s.rec != nil && k.req.measured {
		s.rec.Observe(telemetry.StageQueueWait, s.engine.Now()-k.arrived)
		s.rec.Observe(telemetry.StageService, service)
	}
	// The callback must tolerate being scheduled on a zero-value engine
	// only via SimulateIntegrated, which always sets engine; errors are
	// impossible for non-negative service times.
	_ = s.engine.Schedule(service, func() {
		k.sojourn = s.engine.Now() - k.arrived
		s.onDone(k)
		s.startNext()
	})
}

// SimulateIntegrated runs the event-scheduled fork-join system.
func SimulateIntegrated(cfg IntegratedConfig) (*IntegratedResult, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("sim: nil model config")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("sim: requests=%d must be >= 1", cfg.Requests)
	}
	warmup := cfg.Requests / 10
	m := cfg.Model

	var inj *fault.Injector
	if !cfg.Faults.Empty() {
		var err error
		inj, err = fault.NewInjector(cfg.Faults, m.M())
		if err != nil {
			return nil, err
		}
	}

	var eng Engine
	res := &IntegratedResult{
		Total:  stats.NewHistogram(),
		TS:     stats.NewHistogram(),
		TD:     stats.NewHistogram(),
		KeyLat: stats.NewHistogram(),
	}
	assign, err := dist.NewWeighted(m.LoadRatios)
	if err != nil {
		return nil, err
	}
	var (
		rngReq    = dist.SubRand(cfg.Seed, 201)
		rngAssign = dist.SubRand(cfg.Seed, 202)
		rngMiss   = dist.SubRand(cfg.Seed, 203)
		rngDB     = dist.SubRand(cfg.Seed, 204)
	)

	rec := telemetry.OrNop(cfg.Recorder)
	finishKey := func(k *key) {
		r := k.req
		if k.sojourn > r.maxTS {
			r.maxTS = k.sojourn
		}
		if k.dbLatency > r.maxTD {
			r.maxTD = k.dbLatency
		}
		r.sumTS += k.sojourn
		r.remaining--
		if r.remaining == 0 && r.measured {
			res.Total.Record(eng.Now() - r.start)
			res.TS.Record(r.maxTS)
			res.TD.Record(r.maxTD)
			res.Completed++
			rec.Observe(telemetry.StageForkJoin, r.maxTS-r.sumTS/float64(m.N))
		}
	}
	memcachedDone := func(k *key) {
		if k.req.measured {
			res.KeyLat.Record(k.sojourn)
			res.KeyCount++
		}
		if !k.willMiss {
			finishKey(k)
			return
		}
		if k.req.measured {
			res.MissCount++
		}
		d := rngDB.ExpFloat64() / m.MuD
		d += inj.DelayAt(fault.Database, eng.Now())
		k.dbLatency = d
		if k.req.measured {
			rec.Observe(telemetry.StageMissPenalty, d)
		}
		_ = eng.Schedule(d, func() { finishKey(k) })
	}
	res.BusyTime = make([]float64, m.M())
	servers := make([]*station, m.M())
	for j := range servers {
		servers[j] = &station{
			mu:      m.MuS,
			rng:     dist.SubRand(cfg.Seed, 300+uint64(j)),
			engine:  &eng,
			onDone:  memcachedDone,
			busyAcc: &res.BusyTime[j],
			rec:     cfg.Recorder,
			inj:     inj,
			target:  j,
		}
	}

	// Request generator: Poisson stream with rate Λ/N so the aggregate
	// key rate equals Λ.
	reqRate := m.TotalKeyRate / float64(m.N)
	total := warmup + cfg.Requests
	launched := 0
	var launch func()
	launch = func() {
		if launched >= total {
			return
		}
		launched++
		r := &request{
			start:     eng.Now(),
			remaining: m.N,
			measured:  launched > warmup,
		}
		for i := 0; i < m.N; i++ {
			k := &key{
				req:        r,
				willMiss:   m.MissRatio > 0 && rngMiss.Float64() < m.MissRatio,
				netLatency: m.NetworkLatency,
			}
			j := assign.SampleInt(rngAssign)
			srv := servers[j]
			_ = eng.Schedule(m.NetworkLatency, func() { srv.enqueue(k) })
		}
		gap := rngReq.ExpFloat64() / reqRate
		_ = eng.Schedule(gap, launch)
	}
	launch()
	// Run to (virtual) completion: the event queue drains once all
	// requests finish.
	const horizon = 1e12
	eng.Run(horizon)
	res.Elapsed = eng.LastEventAt()
	if res.Completed < cfg.Requests {
		return nil, fmt.Errorf("sim: only %d/%d requests completed (system overloaded?)",
			res.Completed, cfg.Requests)
	}
	return res, nil
}
