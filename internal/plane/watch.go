package plane

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

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

// NewWatchdog arms the watchdog an -slo spec describes (slo.ParseSpec)
// on a run of s: its bands are PredictedBands(s), so every binary's
// watchdog is priced by the model plane, and its alert lines go to
// alerts. An empty spec arms nothing: the watchdog is nil.
//
// A harness scenario sets the model, and the spec's model keys are
// refused by name. A scenario with no servers (LoadRatios unset) is a
// standalone daemon's, the one server it runs: the model keys set its
// rates — lambda (Λ) and mus (µ_S, unless s has it) are required, mud
// (µ_D) is with miss, and q, xi, miss and n are optional. A standalone
// proxy (s.Proxy set) records only proxy_hop, the one band it keeps.
func NewWatchdog(spec string, s Scenario, alerts io.Writer) (*slo.Watchdog, error) {
	if spec == "" {
		return nil, nil
	}
	standalone := s.LoadRatios == nil
	if standalone {
		s.Name, s.N, s.LoadRatios = "slo-band", 1, core.BalancedLoad(1)
	}
	rates := map[string]*float64{"lambda": &s.TotalKeyRate, "mus": &s.MuS, "mud": &s.MuD,
		"q": &s.Q, "xi": &s.Xi, "miss": &s.MissRatio}
	cfg, err := slo.ParseSpec(spec, func(key, val string) (err error) {
		rate, ok := rates[key]
		switch {
		case !ok && key != "n":
			return errors.New("unknown key")
		case !standalone:
			return errors.New("a model key: the scenario flags set the model here")
		case ok:
			*rate, err = strconv.ParseFloat(val, 64)
		default:
			s.N, err = strconv.Atoi(val)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if standalone {
		switch {
		case !(s.TotalKeyRate > 0) || !(s.MuS > 0):
			return nil, fmt.Errorf("slo: spec %q: a standalone watchdog needs lambda > 0 and mus > 0", spec)
		case s.MissRatio > 0 && !(s.MuD > 0):
			return nil, fmt.Errorf("slo: spec %q: miss > 0 needs mud > 0", spec)
		case !(s.MuD > 0):
			s.MuD = 1 // no miss stage is priced; validation still wants a rate
		}
	}
	if cfg.Predicted, err = PredictedBands(s); err != nil {
		return nil, err
	}
	if standalone && s.Proxy != nil {
		cfg.Predicted = telemetry.Breakdown{telemetry.StageProxyHop: cfg.Predicted[telemetry.StageProxyHop]}
	}
	cfg.AlertWriter = alerts
	return slo.NewWatchdog(cfg)
}
