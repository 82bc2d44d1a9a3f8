package sim

import (
	"cmp"
	"math/rand/v2"
	"slices"

	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// simulateIntegrated is SimulateRequests' request-driven mode: one pass
// over the requests in launch order, after Requests/10 warm-up ones. No
// scheduler is needed: every key reaches its server T_N after its
// request launches, so launch order is arrival order at every FIFO
// server, and a key's service starts at max(arrival, the server's
// previous completion) — the Lindley recursion. The database draws (an
// independent Exp(µ_D) each) are then taken in the order keys leave
// memcached, which is the order an event scheduler reaches them, and
// each request joins at its last key.
func simulateIntegrated(cfg RequestConfig) (*RequestResult, error) {
	warmup := cfg.Requests / 10
	m := cfg.Model
	inj, err := cfg.injector()
	if err != nil {
		return nil, err
	}
	assign, err := dist.NewWeighted(m.LoadRatios)
	if err != nil {
		return nil, err
	}
	res := newResult(m)
	res.KeyLat = stats.NewHistogram()
	res.BusyTime = make([]float64, m.M())
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
	res.Requests = int64(cfg.Requests)
	return res, nil
}
