package plane

import (
	"memqlat/internal/dist"
	"memqlat/internal/loadgen"
	"memqlat/internal/sim"
	"memqlat/internal/telemetry"
)

// coalesceTier is the single-flight miss coalescing unit. The live
// client's GetThrough single-flights its backend fills; the composition
// simulator gives misses key identities (Keys keys under Zipf(ZipfS))
// with per-key in-flight windows; the model prices the delayed-hit
// stage. A coalesced miss that attaches to an in-flight fetch waits out
// the residual of the leader's Exp(µ_D) window, which by memorylessness
// is Exp(µ_D) too, so coalesce_wait mirrors miss_penalty and the
// Theorem 1 totals are unchanged: coalescing moves backend load
// (Λ·r·(1−D) fetches instead of Λ·r; see DelayedHitFraction), not
// per-request latency.
func (s Scenario) coalesceTier() tier {
	return tier{
		name: "miss coalescing",
		price: func(res *Result) error {
			if s.MissRatio > 0 {
				res.Breakdown[telemetry.StageCoalesceWait] = expStage(1 / s.MuD)
			}
			return nil
		},
		lower: func(rc *sim.RequestConfig) error {
			rc.Coalesce, rc.MissKeys, rc.MissZipfS = true, s.Keys, s.ZipfS
			return nil
		},
		drive: func(_ *LiveRun, d *driver) error { d.client.Coalesce = true; return nil },
		summarize: func(r *LiveRun, _ *loadgen.Result, res *Result) {
			cs := r.cl.Coalescer().Stats()
			res.Coalesce = &cs
		},
	}
}

// DelayedHitFraction predicts, for a coalesced run, what fraction of
// misses arrive while their key's backend fetch is already in flight —
// i.e. the fraction of backend fetches coalescing saves.
//
// Misses on key k arrive Poisson at λ_k = Λ·r·w_k (w_k the key's
// popularity weight; Zipf(s) over keys, uniform when s = 0). Each
// fetch holds the key "in flight" for an Exp(µ_D) window, and by
// PASTA the probability a miss lands inside an open window is the
// window's duty cycle. Fetches renew at rate λ_k(1−D_k) with mean
// window 1/µ_D, which solves to the M/G/∞-style duty cycle
//
//	D_k = λ_k / (λ_k + µ_D)
//
// and the aggregate delayed-hit fraction is the miss-weighted average
// D = Σ_k w_k·D_k. The predicted backend fetch rate is Λ·r·(1−D) —
// the "~1 fetch per miss window" acceptance criterion, since each
// window then serves 1/(1−D_k) misses.
func DelayedHitFraction(lambdaMiss, muD float64, keys int, zipfS float64) (float64, error) {
	if keys <= 0 || lambdaMiss <= 0 || muD <= 0 {
		return 0, nil
	}
	weight := func(i int) float64 { return 1 / float64(keys) }
	if zipfS > 0 {
		z, err := dist.NewZipf(keys, zipfS)
		if err != nil {
			return 0, err
		}
		weight = z.Prob
	}
	var d float64
	for i := 0; i < keys; i++ {
		w := weight(i)
		lk := lambdaMiss * w
		d += w * lk / (lk + muD)
	}
	return d, nil
}
