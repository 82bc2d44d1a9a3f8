package sim

import (
	"fmt"
	"math/rand/v2"

	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// ServerConfig parameterizes the GI^X/M/1 key stream at one simulated
// Memcached server.
type ServerConfig struct {
	// Interarrival is the batch inter-arrival gap distribution.
	Interarrival dist.Interarrival
	// Q is the concurrent probability (geometric batch sizes).
	Q float64
	// MuS is the per-key exponential service rate.
	MuS float64
	// Keys is the number of keys recorded, after a warm-up of Keys/10
	// more that are discarded to let the queue reach steady state.
	Keys int
	// Seed makes the run deterministic.
	Seed uint64
	// Recorder, when set, receives StageQueueWait / StageService
	// observations for every measured key.
	Recorder telemetry.Recorder
	// Fault, when set, evaluates every key against the shared fault
	// schedule at its virtual arrival time; Server is this stream's
	// target index in the schedule. Nil = healthy.
	Fault  *fault.Injector
	Server int
}

// ServerResult holds the per-key processing-latency sample of one
// simulated server.
type ServerResult struct {
	// Sojourns are the recorded per-key latencies (queueing + service),
	// in arrival order. For faulted keys the entry is what the CLIENT
	// observes: the drop timeout stand-in, or ~0 for a fast
	// reset/refuse failure.
	Sojourns []float64
	// Failed marks the sojourn entries whose key did not get an answer
	// (dropped reply, reset or refused connection). Nil on healthy runs.
	Failed []bool
	// FailedKeys counts the Failed entries.
	FailedKeys int
	// Hist is the same sample as a quantile-queryable histogram.
	Hist *stats.Histogram
	// Batches is the number of batches that began after the warm-up.
	Batches int
}

// Mean returns the sample mean per-key latency.
func (r *ServerResult) Mean() float64 { return r.Hist.Mean() }

// Quantile returns the k-th per-key latency quantile.
func (r *ServerResult) Quantile(k float64) (float64, error) { return r.Hist.Quantile(k) }

// Sample draws one recorded sojourn uniformly at random — the
// statistical composition step of RequestSim.
func (r *ServerResult) Sample(rng *rand.Rand) float64 {
	return r.Sojourns[rng.IntN(len(r.Sojourns))]
}

// draw samples one recorded key uniformly, as Sample does, and also
// reports whether that key went unanswered — the fault-aware
// composition step.
func (r *ServerResult) draw(rng *rand.Rand) (float64, bool) {
	i := rng.IntN(len(r.Sojourns))
	return r.Sojourns[i], r.FailedAt(i)
}

// FailedAt reports whether sample i was a failure (false on healthy runs).
func (r *ServerResult) FailedAt(i int) bool {
	return r.Failed != nil && r.Failed[i]
}

// SimulateServer runs the GI^X/M/1 queue with the Lindley recursion:
// the unfinished-work process of a FIFO single-server queue evolves as
//
//	U ← max(0, U − gap) at each batch arrival,
//	sojourn(key) = U + Σ service of keys ahead in the batch + own service,
//
// which is the exact discrete-event dynamics of the modeled server.
func SimulateServer(cfg ServerConfig) (*ServerResult, error) {
	if !(cfg.MuS > 0) {
		return nil, fmt.Errorf("sim: muS=%v must be positive", cfg.MuS)
	}
	if cfg.Keys < 1 {
		return nil, fmt.Errorf("sim: keys=%d must be >= 1", cfg.Keys)
	}
	warmup := cfg.Keys / 10
	arrivals, err := dist.NewArrivals(cfg.Interarrival, cfg.Q, dist.SubRand(cfg.Seed, 1), dist.SubRand(cfg.Seed, 2))
	if err != nil {
		return nil, err
	}
	rngService := dist.SubRand(cfg.Seed, 3)
	res := &ServerResult{
		Sojourns: make([]float64, 0, cfg.Keys),
		Hist:     stats.NewHistogram(),
	}
	rec := telemetry.OrNop(cfg.Recorder)
	if cfg.Fault != nil {
		res.Failed = make([]bool, 0, cfg.Keys)
	}
	var (
		backlog float64 // unfinished work at the current arrival instant
		clock   float64 // virtual stream time (fault windows key off it)
	)
	for key := 1; key <= warmup+cfg.Keys; key++ {
		gap, first := arrivals.Next()
		clock += gap
		backlog = max(backlog-gap, 0)
		act := cfg.Fault.At(cfg.Server, clock)
		wait := backlog // work ahead of this key = its queueing delay
		measured := key > warmup
		if measured && first {
			res.Batches++
		}
		if act.Outcome == fault.Reset || act.Outcome == fault.Refuse {
			// Fast connection-level failure: no service consumed, the
			// client learns instantly.
			if measured {
				res.record(0, true)
			}
			continue
		}
		service := rngService.ExpFloat64() / cfg.MuS
		if act.Outcome != fault.Drop {
			// Slow/stall windows hold the server busy longer; a drop's
			// Delay is the client-side timeout stand-in, not work.
			service += act.Delay
		}
		backlog += service
		if !measured {
			continue
		}
		if act.Outcome == fault.Drop {
			// The server did the work but the reply is lost: the
			// client observes the timeout stand-in.
			obs := act.Delay
			if obs < backlog {
				obs = backlog
			}
			res.record(obs, true)
			continue
		}
		res.record(backlog, false)
		rec.Observe(telemetry.StageQueueWait, wait)
		rec.Observe(telemetry.StageService, service)
	}
	return res, nil
}

// record appends one observed key latency.
func (r *ServerResult) record(obs float64, failed bool) {
	r.Sojourns = append(r.Sojourns, obs)
	r.Hist.Record(obs)
	if r.Failed != nil {
		r.Failed = append(r.Failed, failed)
	}
	if failed {
		r.FailedKeys++
	}
}
