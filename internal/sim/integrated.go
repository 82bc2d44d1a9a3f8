package sim

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"

	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// IntegratedConfig drives the full request-driven fork-join system:
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

// SimulateIntegrated runs the request-driven fork-join system in one
// pass over the requests in launch order. No scheduler is needed: every
// key reaches its server T_N after its request launches, so launch order
// is arrival order at every FIFO server, and a key's service starts at
// max(arrival, the server's previous completion) — the Lindley
// recursion. The database draws (an independent Exp(µ_D) each) are then
// taken in the order keys leave memcached, which is the order an event
// scheduler reaches them, and each request joins at its last key.
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
	res := &IntegratedResult{
		Total:    stats.NewHistogram(),
		TS:       stats.NewHistogram(),
		TD:       stats.NewHistogram(),
		KeyLat:   stats.NewHistogram(),
		BusyTime: make([]float64, m.M()),
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
		rngServe  = make([]*rand.Rand, m.M())
		free      = make([]float64, m.M()) // each server's last completion
	)
	for j := range rngServe {
		rngServe[j] = dist.SubRand(cfg.Seed, 300+uint64(j))
	}
	rec := telemetry.OrNop(cfg.Recorder)

	// A request launches at start and joins at end, when its last key
	// returns; a miss is a key that left memcached at done.
	type request struct{ start, end, maxTS, maxTD float64 }
	type miss struct {
		done float64
		req  int
	}
	reqs := make([]request, warmup+cfg.Requests)
	var misses []miss
	// Requests launch as a Poisson stream with rate Λ/N, so the aggregate
	// key rate equals Λ.
	reqRate := m.TotalKeyRate / float64(m.N)
	var launch float64
	for i := range reqs {
		r := &reqs[i]
		r.start = launch
		measured := i >= warmup
		arrival := launch + m.NetworkLatency
		var sumTS float64
		for range m.N {
			willMiss := m.MissRatio > 0 && rngMiss.Float64() < m.MissRatio
			j := assign.SampleInt(rngAssign)
			start := max(arrival, free[j])
			service := rngServe[j].ExpFloat64()/m.MuS + inj.DelayAt(j, start)
			free[j] = start + service
			res.BusyTime[j] += service
			sojourn := free[j] - arrival
			r.maxTS = max(r.maxTS, sojourn)
			sumTS += sojourn
			if willMiss {
				misses = append(misses, miss{free[j], i})
			} else {
				r.end = max(r.end, free[j])
			}
			if measured {
				res.KeyLat.Record(sojourn)
				res.KeyCount++
				rec.Observe(telemetry.StageQueueWait, start-arrival)
				rec.Observe(telemetry.StageService, service)
			}
		}
		if measured {
			rec.Observe(telemetry.StageForkJoin, r.maxTS-sumTS/float64(m.N))
		}
		launch += rngReq.ExpFloat64() / reqRate
	}

	// Stream 204 is drawn in the order keys leave memcached: completions
	// interleave across servers, so launch order would hand the draws out
	// differently.
	slices.SortStableFunc(misses, func(a, b miss) int { return cmp.Compare(a.done, b.done) })
	for _, k := range misses {
		d := rngDB.ExpFloat64()/m.MuD + inj.DelayAt(fault.Database, k.done)
		r := &reqs[k.req]
		r.maxTD = max(r.maxTD, d)
		r.end = max(r.end, k.done+d)
		if k.req >= warmup {
			res.MissCount++
			rec.Observe(telemetry.StageMissPenalty, d)
		}
	}
	// The span ends at the last join or at the generator's final draw,
	// whichever is later.
	res.Elapsed = launch
	for i, r := range reqs {
		res.Elapsed = max(res.Elapsed, r.end)
		if i >= warmup {
			res.Total.Record(r.end - r.start)
			res.TS.Record(r.maxTS)
			res.TD.Record(r.maxTD)
		}
	}
	res.Completed = cfg.Requests
	return res, nil
}
