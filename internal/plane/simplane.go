package plane

import (
	"context"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/mrc"
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
	rc, split, err := p.requestConfig(s)
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
	if s.Extstore != nil {
		res.Extstore = &ExtstoreResult{Predicted: split, DiskHits: out.DiskHits, RAMMisses: out.MissCount}
	}
	res.Tenants = s.simTenants(out, rc.Model.N)
	res.MeanCI = stats.HistMeanCI(res.Sample, ci95)
	res.Breakdown = collector.Breakdown()
	res.Elapsed = time.Since(start)
	return res, nil
}

// requestConfig lowers s to one simulator run and the tier split it
// prices. The streams run at the admitted Λ' (Λ without tenants); the
// virtual request clock, hence the buckets, at the offered Λ.
func (p SimPlane) requestConfig(s Scenario) (sim.RequestConfig, mrc.TierSplit, error) {
	var split mrc.TierSplit
	if _, err := s.validateTenants(); err != nil {
		return sim.RequestConfig{}, split, err
	}
	priced := s.admittedScenario()
	model, err := priced.modelConfig()
	if err != nil {
		return sim.RequestConfig{}, split, err
	}
	rc := sim.RequestConfig{
		Model:          model,
		Requests:       s.Requests,
		Integrated:     p.Mode == SimIntegrated,
		KeysPerServer:  s.KeysPerServer,
		Seed:           s.Seed,
		Faults:         s.Faults,
		Resilience:     s.Resilience,
		Tracer:         s.Tracer,
		Coalesce:       s.Coalesce,
		MissKeys:       s.Keys,
		MissZipfS:      s.ZipfS,
		Tenants:        s.Tenants,
		OfferedKeyRate: s.TotalKeyRate,
	}
	if s.Proxy != nil {
		if rc.ProxyModel, err = priced.proxyConfig(); err != nil {
			return sim.RequestConfig{}, split, err
		}
		if s.Proxy.Policy == "replicate" {
			rc.ReadReplicas = s.Proxy.Replicas
		}
	}
	if e := s.Extstore; e != nil {
		if split, err = s.ExtstoreSplit(); err != nil {
			return sim.RequestConfig{}, split, err
		}
		rc.Extstore = &sim.ExtstoreSim{
			DiskHitFraction: split.DiskHitFraction(),
			MuDisk:          e.MuDisk,
			Dist:            e.DiskDist,
			Sigma:           e.DiskSigma,
		}
	}
	return rc, split, nil
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

// simTenants reports realized tenant rates on the virtual clock: the
// run spans Requests×N offered keys at rate Λ.
func (s Scenario) simTenants(out *sim.RequestResult, n int) []TenantResult {
	if len(out.Tenants) == 0 {
		return nil
	}
	offered, _, _ := s.tenantRates()
	virtualDur := float64(s.Requests) * float64(n) / s.TotalKeyRate
	res := make([]TenantResult, len(out.Tenants))
	for i, t := range out.Tenants {
		snap := t.Snapshot()
		res[i] = TenantResult{
			Name:     snap.Name,
			Class:    snap.Class,
			Offered:  offered[i],
			Admitted: float64(snap.Admitted) / virtualDur,
			Issued:   snap.Admitted + snap.Shed,
			Shed:     snap.Shed,
			Latency:  t.Latency(),
		}
	}
	return res
}

// point is a measured plane's collapsed estimate.
func point(v float64) core.Bounds { return core.Bounds{Lo: v, Hi: v} }
