package plane

import (
	"math"

	"memqlat/internal/core"
	"memqlat/internal/telemetry"
)

// predictBreakdown computes the per-stage means the model's
// ingredients imply, in the same units the measured planes record:
//
//   - queue wait: the per-key queueing delay at the heaviest server —
//     the eq. 3 batch waiting time W plus the service of the q/(1−q)
//     same-batch keys ahead of a random key (size-biased geometric
//     batches), priced as the mean q/(1−q)/µ_S.
//   - service: the exponential per-key service mean 1/µ_S.
//   - miss penalty: the per-miss database mean 1/µ_D (ρ_D ≈ 0 stage).
//   - fork-join: the maximal-statistics inflation — the E[T_S(N)]
//     point tsPoint minus the mean single-key sojourn.
//
// Stage entries carry Count 1: they are analytic points, not samples.
// Each stage also predicts P50/P95/P99 from the distributional shape
// the model assumes: service and miss penalty are exactly exponential
// (Exp(µ_S), Exp(µ_D)), so their quantiles are −ln(1−p)/µ; the queue
// wait follows the eq. 3 law itself (waitStage); the fork-join overhead
// is an analytic point mass — the model prices the join as one number,
// so all its quantiles coincide. These are the "predicted" columns the
// crossplane table diffs against the measured planes' sample
// quantiles, and the bands the SLO watchdog judges (PredictedBands).
func predictBreakdown(m *core.Config, tsPoint float64) (telemetry.Breakdown, error) {
	wait, err := waitStage(m)
	if err != nil {
		return nil, err
	}
	service := 1 / m.MuS
	forkJoin := tsPoint - (wait.Mean + service)
	if forkJoin < 0 {
		forkJoin = 0
	}
	b := telemetry.Breakdown{
		telemetry.StageQueueWait: wait,
		telemetry.StageService:   expStage(service),
		telemetry.StageForkJoin:  analyticStage(forkJoin),
	}
	if m.MissRatio > 0 {
		b[telemetry.StageMissPenalty] = expStage(1 / m.MuD)
	}
	return b, nil
}

// analyticStage is a point-mass prediction: every quantile is the mean.
func analyticStage(mean float64) telemetry.StageStats {
	return telemetry.StageStats{
		Count: 1, Mean: mean, Total: mean,
		P50: mean, P95: mean, P99: mean,
	}
}

// expStage predicts an exponentially distributed stage with the given
// mean: quantile(p) = −ln(1−p)·mean.
func expStage(mean float64) telemetry.StageStats {
	return telemetry.StageStats{
		Count: 1, Mean: mean, Total: mean,
		P50: -math.Log(0.50) * mean,
		P95: -math.Log(0.05) * mean,
		P99: -math.Log(0.01) * mean,
	}
}

// waitStage predicts the per-key queue wait at m's heaviest server: the
// eq. 3 batch wait P{W > t} = δ·e^{−R·t}, R = (1−δ)·(1−q)·µ_S, shifted
// by the same-batch term b = q/(1−q)/µ_S. Its mean is δ/R + b and its
// quantiles are eq. 7's (queueing.BatchQueue.WaitingQuantile) plus b:
// below the 1−δ quantile only b is left — the "most keys don't wait"
// atom at low utilization that an exponential around the mean misses.
func waitStage(m *core.Config) (telemetry.StageStats, error) {
	bq, err := m.HeaviestQueue()
	if err != nil {
		return telemetry.StageStats{}, err
	}
	batch := m.Q / (1 - m.Q) / m.MuS
	quantile := func(p float64) float64 {
		w, _ := bq.WaitingQuantile(p) // p is a level in [0, 1): no error
		return w + batch
	}
	mean := bq.Delta()/bq.DecayRate() + batch
	return telemetry.StageStats{
		Count: 1, Mean: mean, Total: mean,
		P50: quantile(0.50), P95: quantile(0.95), P99: quantile(0.99),
	}, nil
}
