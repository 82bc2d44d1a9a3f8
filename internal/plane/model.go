package plane

import (
	"context"
	"time"

	"memqlat/internal/mrc"
	"memqlat/internal/telemetry"
)

// ModelPlane evaluates a Scenario with the closed-form machinery of
// internal/core: Theorem 1 bounds for the totals and the per-stage
// means its ingredients predict for the Breakdown, so the analytic
// decomposition lines up column-for-column with the measured planes.
type ModelPlane struct{}

// Name implements Plane.
func (ModelPlane) Name() string { return "model" }

// Run implements Plane.
func (p ModelPlane) Run(ctx context.Context, s Scenario) (*Result, error) {
	start := time.Now()
	s = s.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lim, err := s.validateTenants()
	if err != nil {
		return nil, err
	}
	// QoS sheds ahead of every queue, so the shared stages are priced at
	// the admitted rate Λ' (identity without tenants). That is the whole
	// analytic story of the noisy-neighbor scenario: the aggressor's
	// excess never enters λ, so the victims' band is the Λ' band.
	priced := s.admittedScenario()
	model, err := priced.modelConfig()
	if err != nil {
		return nil, err
	}
	var split mrc.TierSplit
	if s.Extstore != nil {
		split, err = s.ExtstoreSplit()
		if err != nil {
			return nil, err
		}
		// Tiered miss stage: a RAM miss is absorbed by the disk tier
		// with probability β (the MRC's conditional disk-hit fraction)
		// at mean 1/µ_disk, else it pays the backend's 1/µ_D — so the
		// per-miss mean is the mixture and Theorem 1's database stage
		// is priced at the blended rate 1/µ' = β/µ_disk + (1−β)/µ_D.
		beta := split.DiskHitFraction()
		model.MuD = 1 / (beta/s.Extstore.MuDisk + (1-beta)/s.MuD)
	}
	est, err := model.Estimate()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Plane:    p.Name(),
		Scenario: s,
		Total:    est.Total,
		TN:       est.TN,
		TS:       est.TS,
		TD:       est.TD,
		Elapsed:  time.Since(start),
	}
	res.Breakdown, err = predictBreakdown(model, est.TS.Mid())
	if err != nil {
		return nil, err
	}
	if s.Extstore != nil {
		// The bounds price the blend, but the breakdown keeps the
		// stages separate the way the measured planes record them:
		// miss_penalty stays the backend's Exp(µ_D) and the disk reads
		// get their own disk_read stage.
		if s.MissRatio > 0 {
			res.Breakdown[telemetry.StageMissPenalty] = expStage(1 / s.MuD)
			res.Breakdown[telemetry.StageDiskRead] = diskStage(*s.Extstore)
		}
		res.Extstore = &ExtstoreResult{Predicted: split}
	}
	if s.Coalesce && s.MissRatio > 0 {
		// Delayed-hit stage: a coalesced miss that attaches to an
		// in-flight fetch waits out the residual of the leader's
		// Exp(µ_D) window, and by memorylessness the residual is
		// Exp(µ_D) too. The stage therefore mirrors miss_penalty and
		// the Theorem-1 totals are unchanged — coalescing moves backend
		// load (Λ·r·(1−D) fetches instead of Λ·r; see
		// DelayedHitFraction), not per-request latency bounds.
		res.Breakdown[telemetry.StageCoalesceWait] = expStage(1 / s.MuD)
	}
	if s.Proxy != nil {
		pc, err := priced.proxyConfig()
		if err != nil {
			return nil, err
		}
		pest, err := pc.Estimate()
		if err != nil {
			return nil, err
		}
		// The proxy is one more stage in series, with its own fork-join
		// over the request's N keys: Theorem 1 bounds compose additively
		// with the memcached/database stages.
		res.Total.Lo += pest.TS.Lo
		res.Total.Hi += pest.TS.Hi
		// Per-key proxy sojourn (queue wait + service, the analytic
		// counterpart of the measured planes' proxy_hop samples):
		// exponential shape around the predicted mean.
		wait, err := waitStage(pc)
		if err != nil {
			return nil, err
		}
		res.Breakdown[telemetry.StageProxyHop] = expStage(wait.Mean + 1/pc.MuS)
	}
	if lim != nil {
		offered, admitted, _ := s.tenantRates()
		res.Tenants = make([]TenantResult, len(s.Tenants))
		for i, tn := range lim.Tenants() {
			res.Tenants[i] = TenantResult{
				Name:     tn.Name(),
				Class:    tn.Class(),
				Offered:  offered[i],
				Admitted: admitted[i],
			}
		}
	}
	return res, nil
}
