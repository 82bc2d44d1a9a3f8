package plane

import (
	"context"
	"fmt"
	"math"

	"memqlat/internal/core"
	"memqlat/internal/slo"
	"memqlat/internal/telemetry"
)

// PredictedBands runs the model plane on s and returns the Theorem-1
// per-stage breakdown shaped for use as SLO watchdog band anchors
// (slo.Config.Predicted).
//
// It differs from the model plane's own Breakdown in one place: the
// queue_wait quantiles. The crossplane table predicts queue-wait
// quantiles with an exponential shape around the eq. 3 mean — fine for
// eyeballing a diff column, but as an alert band it false-alarms at low
// utilization, where the wait distribution has a large atom at zero and
// a conditional tail far longer than 4.6× the mean. The watchdog band
// instead inverts the eq. 3 law directly: the batch wait satisfies
//
//	P{W > t} = δ·e^{−R·t},  R = (1−δ)·(1−q)·µ_S
//
// so quantile(p) = max(0, ln(δ/(1−p))/R), shifted by the same-batch
// service term q/(1−q)/µ_S that the mean prediction carries. Below the
// 1−δ quantile the band's floor is the batch term alone — exactly the
// "most keys don't wait" regime the exponential shape misprices.
//
// All other stages keep the model plane's quantiles, so drift judged
// against these bands is drift against the same closed form the
// crossplane table prints.
func PredictedBands(s Scenario) (telemetry.Breakdown, error) {
	res, err := ModelPlane{}.Run(context.Background(), s)
	if err != nil {
		return nil, err
	}
	b := res.Breakdown
	model, err := s.withDefaults().admittedScenario().Config()
	if err != nil {
		return nil, err
	}
	if err := sharpenQueueWait(b, model); err != nil {
		return nil, err
	}
	return b, nil
}

// sharpenQueueWait replaces the exp-around-mean queue_wait quantiles in
// b with the atom-plus-exponential eq. 3 law (see PredictedBands).
func sharpenQueueWait(b telemetry.Breakdown, m *core.Config) error {
	bq, err := m.HeaviestQueue()
	if err != nil {
		return err
	}
	delta, rate := bq.Delta(), bq.DecayRate()
	batch := m.Q / (1 - m.Q) / m.MuS
	st := b[telemetry.StageQueueWait]
	st.P50 = waitQuantile(0.50, delta, rate) + batch
	st.P95 = waitQuantile(0.95, delta, rate) + batch
	st.P99 = waitQuantile(0.99, delta, rate) + batch
	b[telemetry.StageQueueWait] = st
	return nil
}

// waitQuantile inverts P{W > t} = δ·e^{−R·t}: the p-th quantile of the
// batch waiting time, zero for any p inside the 1−δ atom at the origin.
func waitQuantile(p, delta, rate float64) float64 {
	if !(delta > 0) || p <= 1-delta {
		return 0
	}
	return math.Log(delta/(1-p)) / rate
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
