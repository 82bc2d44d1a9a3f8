package core

import (
	"fmt"
	"math"

	"memqlat/internal/queueing"
)

// Capacity-planning inversions of Theorem 1: the paper's
// recommendations (§5.3) phrased as answers a deployer can act on.

// MaxTotalKeyRate returns the largest aggregate key rate Λ whose
// Theorem 1 upper bound on E[T_S(N)] stays within budget, holding every
// other factor of the Config fixed. This inverts the Fig. 7 sweep: it
// is the admission-control limit implied by a latency SLO.
func (c *Config) MaxTotalKeyRate(budget float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if !(budget > 0) {
		return 0, fmt.Errorf("core: latency budget %v must be positive", budget)
	}
	p1, _ := c.MaxLoadRatio()
	// Upper limit: heaviest server saturates at p1·Λ = µS.
	hiRate := c.MuS / p1 * (1 - 1e-9)
	tsAt := func(rate float64) (float64, error) {
		trial := *c
		trial.TotalKeyRate = rate
		return trial.ExpectedTSPoint()
	}
	// Latency at vanishing load is the service floor; an unreachable
	// budget is reported rather than silently clamped.
	floor, err := tsAt(hiRate * 1e-6)
	if err != nil {
		return 0, err
	}
	if budget < floor {
		return 0, fmt.Errorf("core: budget %.3gs below the zero-load floor %.3gs", budget, floor)
	}
	// A trial too close to saturation to have a numerical δ counts as
	// over budget. Resolving Λ to one part in 1e12 is far below the
	// model's own accuracy.
	rate, err := queueing.FindRoot(func(rate float64) float64 {
		ts, err := tsAt(rate)
		if err != nil {
			return math.Inf(1)
		}
		return ts - budget
	}, hiRate*1e-6, hiRate, hiRate*1e-12)
	if err != nil {
		return 0, fmt.Errorf("core: budget %.3gs does not bind below saturation: %w", budget, err)
	}
	return rate, nil
}

// NetworkCheck quantifies the paper's §4.2 assumption that network
// queueing is negligible. Given the link capacity and message sizes it
// reports the network utilization; the constant-latency model is sound
// while the utilization stays low (the paper's testbed: <10%).
type NetworkCheck struct {
	// RequestUtilization is key-traffic load on the client->server link.
	RequestUtilization float64
	// ResponseUtilization is value-traffic load on the server->client
	// link.
	ResponseUtilization float64
	// Negligible reports whether both stay under 30%, the regime where
	// M/M/1-style queueing delay is within ~1.5x of the no-queue delay.
	Negligible bool
}

// CheckNetwork evaluates the assumption for a deployment: linkBits is
// the per-server link capacity in bits/s, keyBytes and valueBytes the
// average message sizes (paper: keys <= 200 B, values <= 1 KB, 10 Gbps).
func (c *Config) CheckNetwork(linkBits float64, keyBytes, valueBytes int) (NetworkCheck, error) {
	if !(linkBits > 0) {
		return NetworkCheck{}, fmt.Errorf("core: link capacity %v must be positive", linkBits)
	}
	if keyBytes <= 0 || valueBytes <= 0 {
		return NetworkCheck{}, fmt.Errorf("core: message sizes must be positive (key %d, value %d)",
			keyBytes, valueBytes)
	}
	p1, _ := c.MaxLoadRatio()
	perServerRate := p1 * c.TotalKeyRate // heaviest server's keys/s
	req := perServerRate * float64(keyBytes) * 8 / linkBits
	resp := perServerRate * float64(valueBytes) * 8 / linkBits
	return NetworkCheck{
		RequestUtilization:  req,
		ResponseUtilization: resp,
		Negligible:          math.Max(req, resp) < 0.3,
	}, nil
}
