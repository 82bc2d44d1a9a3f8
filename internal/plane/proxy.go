package plane

import (
	"fmt"
	"io"
	"log"

	"memqlat/internal/core"
	"memqlat/internal/proxy"
	"memqlat/internal/sim"
	"memqlat/internal/telemetry"
)

// ProxySpec interposes the proxy tier (internal/proxy) between the
// clients and the servers of a Scenario.
type ProxySpec struct {
	// Policy is the route policy ("direct", "failover", "replicate";
	// default direct). The model plane prices every policy identically —
	// routing does not change the queueing structure; the composition
	// simulator realizes "replicate" as hedged reads; the live plane
	// runs the policy for real.
	Policy string
	// Replicas is the replication degree under "replicate" (default 2).
	Replicas int
}

// proxyTier is the proxy unit. The model and the composition simulator
// price it as one more GI^X/M/1 stage in series: the key stream the
// shared stages see, through a single queue at µ_P = MuS × M (one proxy
// fronting M servers runs at the per-server utilization), with the
// workload's batching and burstiness intact, since the proxy sees the
// union of the servers' arrival processes. Its per-request share is the
// fork-join max over the request's N keys, Theorem 1's treatment of the
// memcached stage. The live plane puts a real TCP proxy in front of the
// cluster and points the client at it.
func (s Scenario) proxyTier(model *core.Config) tier {
	spec := *s.Proxy
	// Only the stage's TS and queue wait are read from pc; the miss and
	// network parameters ride along unread. It is valid when model is.
	pc := *model
	pc.LoadRatios = []float64{1}
	pc.MuS *= float64(model.M())
	// Each plane refuses a bad policy in its own hook, the live plane's
	// once its cluster is up.
	pol, polErr := proxy.ParsePolicy(spec.Policy)
	if polErr != nil {
		polErr = fmt.Errorf("plane: scenario %q: %w", s.Name, polErr)
	}
	return tier{
		name: "the proxy tier",
		price: func(res *Result) error {
			if polErr != nil {
				return polErr
			}
			est, err := pc.Estimate()
			if err != nil {
				return err
			}
			res.Total.Lo += est.TS.Lo
			res.Total.Hi += est.TS.Hi
			// The per-key sojourn, the counterpart of the measured
			// proxy_hop samples: exponential around the predicted mean.
			wait, err := waitStage(&pc)
			if err != nil {
				return err
			}
			res.Breakdown[telemetry.StageProxyHop] = expStage(wait.Mean + 1/pc.MuS)
			return nil
		},
		lower: func(rc *sim.RequestConfig) error {
			rc.ProxyModel = &pc
			if spec.Policy == "replicate" {
				rc.ReadReplicas = spec.Replicas
			}
			return polErr
		},
		drive: func(r *LiveRun, d *driver) (err error) {
			if polErr != nil {
				return polErr
			}
			o := d.proxy
			o.Upstreams, o.Policy, o.Replicas = d.addrs, pol, spec.Replicas
			o.Recorder, o.Tracer, o.Logger = r.rec, s.Tracer, log.New(io.Discard, "", 0)
			if r.px, err = proxy.New(o); err != nil {
				return err
			}
			addr, err := r.serve(r.px.Serve, r.px.Close)
			d.addrs = []string{addr}
			return err
		},
	}
}
