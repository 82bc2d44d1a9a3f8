package plane

import (
	"context"
	"fmt"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/mrc"
	"memqlat/internal/sim"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// SimMode selects which simulator realizes the scenario.
type SimMode int

const (
	// SimComposition is the two-stage composition simulator
	// (sim.SimulateRequests): per-server GI^X/M/1 key streams composed
	// into fork-join requests under the model's independence
	// assumption. It is the paper's "Experiment" column.
	SimComposition SimMode = iota
	// SimIntegrated is the request-driven fork-join system
	// (sim.SimulateIntegrated), whose per-server arrivals emerge from
	// the request stream — the ablation of the independence assumption.
	SimIntegrated
)

// SimPlane evaluates a Scenario on the virtual-time simulator.
type SimPlane struct {
	// Mode selects the simulator (default SimComposition).
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
	if _, err := s.validateTenants(); err != nil {
		return nil, err
	}
	if len(s.Tenants) > 0 && p.Mode == SimIntegrated {
		return nil, fmt.Errorf("plane: scenario %q: the integrated simulator does not model tenant QoS (use the composition sim)", s.Name)
	}
	if s.SLO != nil && p.Mode == SimIntegrated {
		return nil, fmt.Errorf("plane: scenario %q: the integrated simulator does not replay the SLO watchdog (use the composition sim)", s.Name)
	}
	var split mrc.TierSplit
	if s.Extstore != nil {
		if p.Mode == SimIntegrated {
			return nil, fmt.Errorf("plane: scenario %q: the integrated simulator does not model the extstore tier (use the composition sim)", s.Name)
		}
		var err error
		split, err = s.ExtstoreSplit()
		if err != nil {
			return nil, err
		}
	}
	// The surviving streams run at the admitted rate Λ' (identity
	// without tenants); the virtual request clock — and hence the
	// buckets — run at the offered Λ via OfferedKeyRate below.
	priced := s.admittedScenario()
	model, err := priced.Config()
	if err != nil {
		return nil, err
	}
	var proxyModel *core.Config
	if s.Proxy != nil {
		if p.Mode == SimIntegrated {
			return nil, fmt.Errorf("plane: scenario %q: the integrated simulator does not model a proxy tier (use the composition sim)", s.Name)
		}
		proxyModel, err = priced.proxyConfig()
		if err != nil {
			return nil, err
		}
	}
	collector := telemetry.NewCollector()
	res := &Result{
		Plane:    p.Name(),
		Scenario: s,
		TN:       model.NetworkLatency,
	}
	switch p.Mode {
	case SimIntegrated:
		integ, err := sim.SimulateIntegrated(sim.IntegratedConfig{
			Model:    model,
			Requests: s.Requests,
			Seed:     s.Seed,
			Recorder: collector,
			Faults:   s.Faults,
		})
		if err != nil {
			return nil, err
		}
		tsMean := integ.TS.Mean()
		tdMean := integ.TD.Mean()
		totalMean := integ.Total.Mean()
		res.Total = core.Bounds{Lo: totalMean, Hi: totalMean}
		res.TS = core.Bounds{Lo: tsMean, Hi: tsMean}
		res.TD = tdMean
		res.Sample = integ.Total
		res.Integrated = integ
	default:
		rc := sim.RequestConfig{
			Model:          model,
			Requests:       s.Requests,
			KeysPerServer:  s.KeysPerServer,
			Seed:           s.Seed,
			Recorder:       collector,
			Faults:         s.Faults,
			Resilience:     s.Resilience,
			ProxyModel:     proxyModel,
			Tracer:         s.Tracer,
			Coalesce:       s.Coalesce,
			MissKeys:       s.Keys,
			MissZipfS:      s.ZipfS,
			Tenants:        s.Tenants,
			OfferedKeyRate: s.TotalKeyRate,
		}
		if s.Proxy != nil && s.Proxy.Policy == "replicate" {
			rc.ReadReplicas = s.Proxy.Replicas
		}
		if wd := s.SLO; wd != nil {
			// The watchdog replays on the virtual request timeline: the
			// composition loop advances its windows at each arrival
			// instant and tees every request-loop stage into its
			// sketches. The per-server streams are pre-simulated outside
			// that timeline, so queue_wait/service stay out of the sim
			// replay — the drift signals here are the request-scoped
			// stages (miss_penalty, proxy_hop, fork_join, ...). The
			// observer draws nothing, so sims with and without a watchdog
			// are byte-identical and a given seed detects drift at the
			// same window index on every run.
			wd.Arm()
			rc.Observer = wd
		}
		if e := s.Extstore; e != nil {
			rc.Extstore = &sim.ExtstoreSim{
				DiskHitFraction: split.DiskHitFraction(),
				MuDisk:          e.MuDisk,
				Dist:            e.DiskDist,
				Sigma:           e.DiskSigma,
			}
		}
		comp, err := sim.SimulateRequests(rc)
		if err != nil {
			return nil, err
		}
		if wd := s.SLO; wd != nil {
			wd.Flush()
			res.SLO = wd.Status()
		}
		tsEst, err := comp.TSQuantileEstimate(model)
		if err != nil {
			return nil, err
		}
		tdEst, err := comp.TDQuantileEstimate()
		if err != nil {
			return nil, err
		}
		tpEst, err := comp.TPQuantileEstimate(model.N)
		if err != nil {
			return nil, err
		}
		total := comp.TN + tsEst + tdEst + tpEst
		res.Total = core.Bounds{Lo: total, Hi: total}
		res.TS = core.Bounds{Lo: tsEst, Hi: tsEst}
		res.TD = tdEst
		res.Sample = comp.Total
		res.Sim = comp
		if s.Extstore != nil {
			res.Extstore = &ExtstoreResult{
				Predicted: split,
				DiskHits:  comp.DiskHits,
				RAMMisses: comp.MissCount,
			}
		}
		if len(comp.Tenants) > 0 {
			// Realized per-tenant rates on the virtual clock: the run
			// spans Requests×N offered keys at rate Λ.
			offered, _, _ := s.tenantRates()
			virtualDur := float64(s.Requests) * float64(model.N) / s.TotalKeyRate
			res.Tenants = make([]TenantResult, len(comp.Tenants))
			for i, tr := range comp.Tenants {
				res.Tenants[i] = TenantResult{
					Name:     tr.Snapshot.Name,
					Class:    tr.Snapshot.Class,
					Offered:  offered[i],
					Admitted: float64(tr.Snapshot.Admitted) / virtualDur,
					Issued:   tr.Snapshot.Admitted + tr.Snapshot.Shed,
					Shed:     tr.Snapshot.Shed,
					Latency:  tr.Latency,
				}
			}
		}
	}
	res.MeanCI = stats.HistMeanCI(res.Sample, ci95)
	res.Breakdown = collector.Breakdown()
	res.Elapsed = time.Since(start)
	return res, nil
}
