package plane

import (
	"context"
	"time"
)

// ModelPlane evaluates a Scenario with the closed-form machinery of
// internal/core: Theorem 1 bounds for the totals and the per-stage
// means its ingredients predict for the Breakdown, so the analytic
// decomposition lines up column-for-column with the measured planes.
// Each armed tier adds its own pricing (see tier).
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
	model, tiers, err := s.tiers()
	if err != nil {
		return nil, err
	}
	for _, t := range tiers {
		if t.reprice != nil {
			t.reprice(model)
		}
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
	for _, t := range tiers {
		if t.price != nil {
			if err := t.price(res); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
