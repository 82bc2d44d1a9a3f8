package sim

import (
	"fmt"
	"math"

	"memqlat/internal/dist"
	"memqlat/internal/stats"
)

// MissStageConfig drives the database-stage-only simulation used by the
// Fig. 11/13 sweeps, where N reaches 10⁶ and per-key composition would
// be wasteful: per request the miss count K ~ Binomial(N, r) is drawn
// directly and the max of K exponential database latencies is sampled
// in O(1) by CDF inversion.
type MissStageConfig struct {
	// N is the keys per request.
	N int
	// MissRatio is r.
	MissRatio float64
	// MuD is the database service rate.
	MuD float64
	// Requests is the sample size.
	Requests int
	// Seed makes the run deterministic.
	Seed uint64
}

// MissStageResult reports the measured T_D(N) statistics.
type MissStageResult struct {
	// TD is the per-request max database latency (0 for all-hit
	// requests).
	TD *stats.Histogram
	// RequestsWithMiss counts requests with K > 0.
	RequestsWithMiss int64
	// MissKeys sums K over all requests.
	MissKeys int64
	// Requests is the number simulated.
	Requests int64
}

// TDQuantileEstimate applies the paper's eq. 21–23 empirical estimator
// (see RequestResult.TDQuantileEstimate) using the exact exponential
// quantile, since the DB latency law is known here.
func (r *MissStageResult) TDQuantileEstimate(muD float64) float64 {
	if r.RequestsWithMiss == 0 {
		return 0
	}
	pAny := float64(r.RequestsWithMiss) / float64(r.Requests)
	kBar := float64(r.MissKeys) / float64(r.RequestsWithMiss)
	// (T_D)_{kBar/(kBar+1)} of Exp(muD) = ln(kBar+1)/muD (paper eq. 21).
	return pAny * math.Log1p(kBar) / muD
}

// SimulateMissStage runs the database stage in isolation.
func SimulateMissStage(cfg MissStageConfig) (*MissStageResult, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("sim: N=%d must be >= 1", cfg.N)
	}
	if cfg.MissRatio < 0 || cfg.MissRatio > 1 {
		return nil, fmt.Errorf("sim: miss ratio %v out of [0,1]", cfg.MissRatio)
	}
	if !(cfg.MuD > 0) {
		return nil, fmt.Errorf("sim: muD=%v must be positive", cfg.MuD)
	}
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("sim: requests=%d must be >= 1", cfg.Requests)
	}
	rngK := dist.SubRand(cfg.Seed, 501)
	rngMax := dist.SubRand(cfg.Seed, 502)
	res := &MissStageResult{TD: stats.NewHistogram(), Requests: int64(cfg.Requests)}
	for i := 0; i < cfg.Requests; i++ {
		k := dist.SampleBinomial(rngK, int64(cfg.N), cfg.MissRatio)
		if k == 0 {
			res.TD.Record(0)
			continue
		}
		res.RequestsWithMiss++
		res.MissKeys += k
		res.TD.Record(dist.SampleMaxExponential(rngMax, cfg.MuD, k))
	}
	return res, nil
}
