package plane

import (
	"fmt"

	"memqlat/internal/backend"
	"memqlat/internal/client"
	"memqlat/internal/core"
	"memqlat/internal/fault"
	"memqlat/internal/loadgen"
	"memqlat/internal/proxy"
	"memqlat/internal/server"
	"memqlat/internal/sim"
)

// tier is one optional stage of a Scenario (the proxy, tenant QoS, miss
// coalescing, the disk tier, faults, resilience) as all three planes see
// it: how the model prices it, how the simulator runs it, what the live
// stack builds for it and which Result surface it fills. Each unit keeps
// its hooks in its own file; a hook is nil where the tier has nothing to
// do on that plane, and every plane calls the armed tiers' hooks in the
// order Scenario.tiers returns them.
type tier struct {
	// name says what the tier is in a refusal.
	name string
	// reprice adjusts the model's configuration before Theorem 1 is
	// solved; price adds the tier's stages and surface to the result.
	reprice func(c *core.Config)
	price   func(res *Result) error
	// lower arms the tier on a simulator run; simulated reports it.
	lower     func(rc *sim.RequestConfig) error
	simulated func(out *sim.RequestResult, res *Result)
	// server builds the tier into server i of an in-process cluster, so
	// a tier that has one cannot run on an attached cluster. drive builds
	// it into what drives the cluster, populated finishes it once the
	// keyspace is written, and summarize reports it.
	server    func(r *LiveRun, i int, o *server.Options) error
	drive     func(r *LiveRun, d *driver) error
	populated func()
	summarize func(r *LiveRun, lg *loadgen.Result, res *Result)
}

// driver is what drives a live cluster, assembled before any of it is
// built: the addresses the client dials and the options of the backend,
// the proxy, the client and the load generator.
type driver struct {
	addrs  []string
	db     backend.Options
	proxy  proxy.Options
	client client.Options
	load   loadgen.Options
}

// tiers arms the scenario's optional stages and returns them with the
// model configuration the shared stages are priced at, each computed
// once per run. Tenant QoS goes first: it sheds ahead of every queue, so
// those stages, the proxy's among them, see the admitted rate Λ′ rather
// than the offered Λ.
func (s Scenario) tiers() (*core.Config, []tier, error) {
	var ts []tier
	model := s.Config
	if len(s.Tenants) > 0 {
		t, admitted, err := s.tenantTier()
		if err != nil {
			return nil, nil, err
		}
		ts, model.TotalKeyRate = append(ts, t), admitted
	}
	if err := model.Validate(); err != nil {
		return nil, nil, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
	}
	if s.Proxy != nil {
		ts = append(ts, s.proxyTier(&model))
	}
	if s.Coalesce {
		ts = append(ts, s.coalesceTier())
	}
	if s.Extstore != nil {
		t, err := s.extstoreTier()
		if err != nil {
			return nil, nil, err
		}
		ts = append(ts, t)
	}
	if !s.Faults.Empty() {
		ts = append(ts, s.faultTier())
	}
	if s.Resilience != (fault.Resilience{}) {
		ts = append(ts, s.resilienceTier())
	}
	return &model, ts, nil
}
