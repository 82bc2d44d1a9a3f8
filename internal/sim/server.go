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
	// schedule when the server starts it; Server is this stream's
	// target index in the schedule. Nil = healthy.
	Fault  *fault.Injector
	Server int
}

// ServerResult holds the per-key processing-latency sample of one
// simulated server.
type ServerResult struct {
	// Sojourns are the recorded per-key latencies (queueing + service),
	// in arrival order. For faulted keys the entry is what the CLIENT
	// observes: at least the drop timeout stand-in, or for a reset/refuse
	// failure its wait until the server started it and turned it away.
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

// fifo is one simulated FIFO cache server on absolute virtual time:
// service draws Exp(muS) on rng, the server's faults come from inj as
// target, and free is its last completion.
type fifo struct {
	muS    float64
	rng    *rand.Rand
	inj    *fault.Injector
	target int
	free   float64
}

// visit is one key's pass through a fifo: its queueing delay, the work
// it held the server for, what its caller observes and when, and
// whether it went unanswered.
type visit struct {
	wait, service, sojourn, done float64
	failed                       bool
}

// serve runs the key arriving at arrival through the Lindley step: it
// starts at max(arrival, the previous completion), where it takes its
// fault verdict, and the verdict acts by the fault.Action law.
func (f *fifo) serve(arrival float64) visit {
	start := max(arrival, f.free)
	act := f.inj.At(f.target, start)
	if act.Refused() {
		return visit{sojourn: start - arrival, done: start, failed: true}
	}
	v := visit{wait: start - arrival, service: f.rng.ExpFloat64()/f.muS + act.Work()}
	f.free = start + v.service
	v.sojourn, v.done, v.failed = f.free-arrival, f.free, act.Lost()
	if v.failed && act.Delay > v.sojourn {
		v.sojourn, v.done = act.Delay, arrival+act.Delay
	}
	return v
}

// SimulateServer runs the GI^X/M/1 queue one key at a time through a
// fifo, which is the exact discrete-event dynamics of the modeled
// server.
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
	srv := fifo{muS: cfg.MuS, rng: dist.SubRand(cfg.Seed, 3), inj: cfg.Fault, target: cfg.Server}
	res := &ServerResult{
		Sojourns: make([]float64, 0, cfg.Keys),
		Hist:     stats.NewHistogram(),
	}
	rec := telemetry.OrNop(cfg.Recorder)
	if cfg.Fault != nil {
		res.Failed = make([]bool, 0, cfg.Keys)
	}
	var clock float64 // virtual stream time
	for key := 1; key <= warmup+cfg.Keys; key++ {
		gap, first := arrivals.Next()
		clock += gap
		v := srv.serve(clock)
		if key <= warmup {
			continue
		}
		if first {
			res.Batches++
		}
		res.record(v.sojourn, v.failed)
		if !v.failed {
			rec.Observe(telemetry.StageQueueWait, v.wait)
			rec.Observe(telemetry.StageService, v.service)
		}
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
