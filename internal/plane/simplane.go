package plane

import (
	"context"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/sim"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// SimMode selects the mode of sim.SimulateRequests that runs a scenario.
type SimMode int

const (
	// SimComposition is the two-stage composition mode: per-server
	// GI^X/M/1 key streams composed into fork-join requests under the
	// model's independence assumption. It is the paper's "Experiment"
	// column.
	SimComposition SimMode = iota
	// SimIntegrated is the request-driven mode, whose per-server arrivals
	// emerge from the request stream — the ablation of the independence
	// assumption.
	SimIntegrated
)

// SimPlane evaluates a Scenario on the virtual-time simulator.
type SimPlane struct {
	// Mode selects the simulator mode (default SimComposition).
	Mode SimMode
}

// Name implements Plane.
func (p SimPlane) Name() string {
	if p.Mode == SimIntegrated {
		return "sim-integrated"
	}
	return "sim"
}

// Run implements Plane.
func (p SimPlane) Run(ctx context.Context, s Scenario) (*Result, error) {
	start := time.Now()
	s = s.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rc, tiers, err := p.requestConfig(s)
	if err != nil {
		return nil, err
	}
	collector := telemetry.NewCollector()
	rc.Recorder = collector
	if wd := s.SLO; wd != nil {
		// The watchdog replays on the virtual request timeline: the
		// composition loop advances its windows at each arrival instant
		// and tees every request-loop stage into its sketches. The
		// per-server streams are pre-simulated outside that timeline, so
		// queue_wait/service stay out of the sim replay — the drift
		// signals here are the request-scoped stages (miss_penalty,
		// proxy_hop, fork_join, ...). The observer draws nothing, so sims
		// with and without a watchdog are byte-identical and a given seed
		// detects drift at the same window index on every run.
		wd.Arm()
		rc.Observer = wd
	}
	out, err := sim.SimulateRequests(rc)
	if err != nil {
		return nil, err
	}
	res := &Result{Plane: p.Name(), Scenario: s, TN: out.TN, Sample: out.Total, Sim: out}
	if p.Mode == SimIntegrated {
		// No per-server streams to estimate from: means of the maxima.
		res.Total = point(out.Total.Mean())
		res.TS = point(out.TS.Mean())
		res.TD = out.TD.Mean()
	} else if err := res.estimate(out, rc.Model); err != nil {
		return nil, err
	}
	if wd := s.SLO; wd != nil {
		wd.Flush()
		res.SLO = wd.Status()
	}
	for _, t := range tiers {
		if t.simulated != nil {
			t.simulated(out, res)
		}
	}
	res.MeanCI = stats.HistMeanCI(res.Sample, ci95)
	res.Breakdown = collector.Breakdown()
	res.Elapsed = time.Since(start)
	return res, nil
}

// requestConfig lowers s to one simulator run, with the tiers it arms.
// The streams run at the admitted Λ′ (Λ without tenants).
func (p SimPlane) requestConfig(s Scenario) (sim.RequestConfig, []tier, error) {
	model, tiers, err := s.tiers()
	if err != nil {
		return sim.RequestConfig{}, nil, err
	}
	rc := sim.RequestConfig{
		Model:         model,
		Requests:      s.Requests,
		Integrated:    p.Mode == SimIntegrated,
		KeysPerServer: s.KeysPerServer,
		Seed:          s.Seed,
		Tracer:        s.Tracer,
	}
	for _, t := range tiers {
		if t.lower != nil {
			if err := t.lower(&rc); err != nil {
				return sim.RequestConfig{}, nil, err
			}
		}
	}
	return rc, tiers, nil
}

// estimate sets the totals from the §4.5 quantile estimators.
func (r *Result) estimate(out *sim.RequestResult, model *core.Config) error {
	ts, err := out.TSQuantileEstimate(model)
	if err != nil {
		return err
	}
	td, err := out.TDQuantileEstimate()
	if err != nil {
		return err
	}
	tp, err := out.TPQuantileEstimate(model.N)
	if err != nil {
		return err
	}
	r.Total = point(out.TN + ts + td + tp)
	r.TS = point(ts)
	r.TD = td
	return nil
}

// point is a measured plane's collapsed estimate.
func point(v float64) core.Bounds { return core.Bounds{Lo: v, Hi: v} }
