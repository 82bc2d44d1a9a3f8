package experiments

import (
	"context"
	"fmt"
	"time"

	"memqlat/internal/fault"
	"memqlat/internal/plane"
	"memqlat/internal/telemetry"
	"memqlat/internal/workload"
)

// resilienceFaults is the schedule the policy sweep runs under: a hard
// 20%-drop fault on server 0 with a 5ms timeout stand-in — heavy enough
// that every policy has something to recover, light enough that the
// healthy three quarters of the fleet keeps the composition meaningful.
const resilienceFaults = "drop:srv=0,p=0.2,delay=5ms"

// ExtResilience sweeps the recovery policies one at a time (and
// combined) over the same faulted scenario on the composition
// simulator: what does each policy buy — in failed keys, degraded
// requests, shed load and latency — under the identical deterministic
// fault sequence? This is the fault-injection analogue of the paper's
// factor sweeps: the factor is the recovery policy, everything else is
// pinned.
func ExtResilience(b Budget) (*Report, error) {
	start := time.Now()
	model := workload.Facebook()
	faults, err := fault.ParseSchedule(resilienceFaults)
	if err != nil {
		return nil, err
	}
	retry := fault.Resilience{Retries: 2, RetryBackoff: 100e-6}
	hedge := fault.Resilience{HedgeDelay: 2e-3}
	breaker := fault.Resilience{BreakerThreshold: 0.5, BreakerWindow: 20, BreakerCooldown: 0.02}
	all := fault.Resilience{
		Retries: 2, RetryBackoff: 100e-6,
		HedgeDelay:       2e-3,
		BreakerThreshold: 0.5, BreakerWindow: 20, BreakerCooldown: 0.02,
	}
	policies := []struct {
		label string
		spec  fault.Resilience
	}{
		{"none", fault.Resilience{}},
		{"retry", retry},
		{"hedge", hedge},
		{"breaker", breaker},
		{"retry+hedge+breaker", all},
	}
	var rows [][]string
	for _, pol := range policies {
		s := scenarioFor("facebook", model, b, 0)
		s.Faults = faults
		s.Resilience = pol.spec
		res, err := plane.SimPlane{}.Run(context.Background(), s)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol.label, err)
		}
		p99, err := res.Sample.Quantile(0.99)
		if err != nil {
			return nil, err
		}
		sim := res.Sim
		failedPct := float64(sim.FailedKeys) / float64(sim.KeyCount)
		degradedPct := float64(sim.DegradedRequests) / float64(sim.Requests)
		rows = append(rows, []string{
			pol.label,
			lat(res.Sample.Mean()),
			lat(p99),
			fmt.Sprintf("%d (%s)", sim.FailedKeys, pct(failedPct)),
			fmt.Sprintf("%d", sim.ShedKeys),
			fmt.Sprintf("%d (%s)", sim.DegradedRequests, pct(degradedPct)),
			lat(res.Breakdown.MeanOf(telemetry.StageRetry)),
			lat(res.Breakdown.MeanOf(telemetry.StageHedgeWait)),
		})
	}
	return &Report{
		ID:    "ext-resilience",
		Title: "Extension: recovery-policy sweep under the fault schedule " + resilienceFaults,
		Columns: []string{"policy", "E[T(N)]", "p99", "failed keys", "shed keys",
			"degraded reqs", "retry", "hedge_wait"},
		Rows: rows,
		Notes: []string{
			"all rows share one deterministic fault sequence (same schedule seed), so " +
				"differences are the policy's doing, not sampling noise",
			"retries and hedges re-draw the faulted server's latency distribution, so " +
				"each masks ~p of the p-probability drops per extra attempt",
			"the breaker trades availability for latency: shed keys fail fast instead " +
				"of eating the 5ms timeout stand-in",
			"the live client reads the same policy knobs (client.Options.Resilience, a fault.Resilience); " +
				"mcbench -faults runs this sweep's schedule against the real TCP stack",
		},
		Elapsed: time.Since(start),
	}, nil
}
