package plane

import (
	"context"
	"fmt"

	"memqlat/internal/core"
	"memqlat/internal/slo"
	"memqlat/internal/telemetry"
)

// PredictedBands returns the model plane's per-stage breakdown of s,
// the Theorem-1 bands an SLO watchdog is anchored to
// (slo.Config.Predicted): drift judged against them is drift against
// the same closed form the crossplane table prints, queue wait's eq. 3
// law included.
func PredictedBands(s Scenario) (telemetry.Breakdown, error) {
	res, err := ModelPlane{}.Run(context.Background(), s)
	if err != nil {
		return nil, err
	}
	return res.Breakdown, nil
}

// BandsFromModel lowers a -slo flag's queueing parameters (slo.Model)
// to a single-server Scenario and returns its watchdog bands. This is
// how the standalone daemons — which have no Scenario, only a flag
// string — anchor their watchdogs to the same Theorem-1 closed form the
// harness uses.
func BandsFromModel(m slo.Model) (telemetry.Breakdown, error) {
	if !(m.Lambda > 0) {
		return nil, fmt.Errorf("plane: slo model needs lambda > 0 to anchor bands")
	}
	if !(m.MuS > 0) {
		return nil, fmt.Errorf("plane: slo model needs mus > 0 to anchor bands")
	}
	if m.Miss > 0 && !(m.MuD > 0) {
		return nil, fmt.Errorf("plane: slo model with miss > 0 needs mud > 0")
	}
	mud := m.MuD
	if mud <= 0 {
		// No miss stage is priced; Validate still wants a positive rate.
		mud = 1
	}
	n := m.N
	if n <= 0 {
		n = 1
	}
	s := Scenario{
		Name:         "slo-band",
		N:            n,
		LoadRatios:   core.BalancedLoad(1),
		TotalKeyRate: m.Lambda,
		Q:            m.Q,
		Xi:           m.Xi,
		MuS:          m.MuS,
		MissRatio:    m.Miss,
		MuD:          mud,
	}
	return PredictedBands(s)
}

// ProxyHopBand returns the proxy_hop watchdog band for a standalone
// proxy fed aggregate key rate m.Lambda at service rate m.MuS: the same
// single GI^X/M/1 stage the model plane prices for Scenario.Proxy,
// with the per-key sojourn given an exponential shape around its mean.
func ProxyHopBand(m slo.Model) (telemetry.Breakdown, error) {
	if !(m.Lambda > 0) || !(m.MuS > 0) {
		return nil, fmt.Errorf("plane: proxy slo model needs lambda > 0 and mus > 0")
	}
	n := m.N
	if n <= 0 {
		n = 1
	}
	pc := &core.Config{
		N:            n,
		LoadRatios:   core.BalancedLoad(1),
		TotalKeyRate: m.Lambda,
		Q:            m.Q,
		Xi:           m.Xi,
		MuS:          m.MuS,
		MuD:          1, // unused by the hop stage; satisfies validation
	}
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	hop, err := proxyStageMean(pc)
	if err != nil {
		return nil, err
	}
	return telemetry.Breakdown{telemetry.StageProxyHop: expStage(hop)}, nil
}
